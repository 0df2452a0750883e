//! # ml — downstream machine-learning substrate
//!
//! The paper evaluates embeddings via downstream **column prediction**: an
//! SVM (scikit-learn's `SVC`, i.e. an RBF-kernel C-SVM) is trained on the
//! embedded tuples and scored with stratified 10-fold cross-validation.
//! This crate replaces that stack:
//!
//! * an **RBF-kernel SVM** trained with a simplified SMO solver
//!   ([`smo`], the `SVC` equivalent, with scikit-learn's `gamma="scale"`
//!   default),
//! * **logistic regression** used by the flat-feature baseline
//!   ([`logreg`]),
//! * **one-vs-rest** multiclass reduction ([`multiclass`]),
//! * feature **standardisation** ([`scaler`]), **stratified k-fold** CV
//!   ([`cv`]) and accuracy metrics ([`metrics`]).

pub mod cv;
pub mod logreg;
pub mod metrics;
pub mod multiclass;
pub mod scaler;
pub mod smo;

pub use cv::{cross_validate, stratified_kfold};
pub use logreg::LogisticRegression;
pub use metrics::{accuracy, majority_class, ConfusionMatrix};
pub use multiclass::{BinaryClassifier, OneVsRest};
pub use scaler::StandardScaler;
pub use smo::{RbfSvm, SvmParams};

/// A labelled dataset view: feature rows and integer class labels.
#[derive(Debug, Clone, Copy)]
pub struct DataView<'a> {
    /// Feature rows (all the same length).
    pub x: &'a [Vec<f64>],
    /// Class label per row.
    pub y: &'a [usize],
}

impl<'a> DataView<'a> {
    /// Construct, asserting consistency.
    pub fn new(x: &'a [Vec<f64>], y: &'a [usize]) -> Self {
        assert_eq!(x.len(), y.len(), "features and labels must align");
        DataView { x, y }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` iff the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of distinct classes (labels are assumed dense `0..k`).
    pub fn class_count(&self) -> usize {
        self.y.iter().copied().max().map_or(0, |m| m + 1)
    }
}
