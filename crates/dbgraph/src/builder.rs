//! Construction of the bipartite fact/value graph `G_D` (paper §IV).

use crate::{Graph, NodeId, UnionFind};
use reldb::{Database, FactId, RelationId, Schema, Value};
use std::collections::{BTreeMap, HashMap};

/// What a graph node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// `v(f)` — a fact node.
    Fact(FactId),
    /// `u(class, a)` — a value node. `class` is the FK-equivalence class of
    /// columns (see [`DbGraph::column_class`]); identified nodes share one
    /// `NodeKind`.
    Value {
        /// Column equivalence class.
        class: u32,
        /// The attribute value.
        value: Value,
    },
}

/// The bipartite graph of a database plus the bookkeeping needed to extend
/// it incrementally when new facts arrive.
#[derive(Debug, Clone)]
pub struct DbGraph {
    graph: Graph,
    kinds: Vec<NodeKind>,
    /// Ordered map: `FactId` is `Ord`, so no hasher state can ever leak
    /// into a result through this map, and a future walk over it needs
    /// no iteration-order waiver.
    fact_nodes: BTreeMap<FactId, NodeId>,
    /// Stays a `HashMap`: [`Value`] has no consistent `Ord` (`Float` keys
    /// are compared by `PartialEq`, which identifies `-0.0 == 0.0`, while
    /// any total order would have to split them). It is only ever probed
    /// by key, never iterated.
    value_nodes: HashMap<(u32, Value), NodeId>,
    /// `column_class[rel][attr]` → equivalence class id.
    column_class: Vec<Vec<u32>>,
    /// A representative `(relation, attribute)` per class, for display.
    class_repr: Vec<(RelationId, usize)>,
}

impl DbGraph {
    /// Compute the FK-induced column classes for `schema`.
    ///
    /// Columns `(R, Bᵢ)` and `(S, Cᵢ)` are merged for every FK
    /// `R[B…] ⊆ S[C…]`; value nodes are then keyed by `(class, value)`,
    /// which realises exactly the node identification of the paper: two
    /// occurrences of the same constant are one node iff their columns are
    /// connected by a chain of foreign keys.
    fn column_classes(schema: &Schema) -> (Vec<Vec<u32>>, Vec<(RelationId, usize)>) {
        // Flatten columns.
        let mut offsets = Vec::with_capacity(schema.relation_count());
        let mut total = 0usize;
        for rel in schema.relations() {
            offsets.push(total);
            total += rel.arity();
        }
        let mut uf = UnionFind::new(total);
        for fk in schema.foreign_keys() {
            for (b, c) in fk.from_attrs.iter().zip(fk.to_attrs.iter()) {
                let from_col = offsets[fk.from_rel.index()] + b;
                let to_col = offsets[fk.to_rel.index()] + c;
                uf.union(from_col, to_col);
            }
        }
        // Densify class ids and record representatives.
        let mut dense: HashMap<usize, u32> = HashMap::new();
        let mut classes = Vec::with_capacity(schema.relation_count());
        let mut reprs: Vec<(RelationId, usize)> = Vec::new();
        for (rel_idx, rel) in schema.relations().iter().enumerate() {
            let mut per_attr = Vec::with_capacity(rel.arity());
            for attr in 0..rel.arity() {
                let root = uf.find(offsets[rel_idx] + attr);
                let next_id = dense.len() as u32;
                let class = *dense.entry(root).or_insert_with(|| {
                    reprs.push((RelationId(rel_idx as u32), attr));
                    next_id
                });
                per_attr.push(class);
            }
            classes.push(per_attr);
        }
        (classes, reprs)
    }

    /// Build `G_D` for the whole database.
    pub fn build(db: &Database) -> DbGraph {
        let (column_class, class_repr) = Self::column_classes(db.schema());
        let mut this = DbGraph {
            graph: Graph::new(),
            kinds: Vec::new(),
            fact_nodes: BTreeMap::new(),
            value_nodes: HashMap::new(),
            column_class,
            class_repr,
        };
        for rel in db.schema().relation_ids() {
            for (fact_id, _) in db.facts(rel) {
                this.add_fact_node(db, fact_id);
            }
        }
        // One finalize pass merges the whole buffered edge batch into the
        // CSR arrays: O(E log E) total instead of O(E·deg) sorted inserts.
        this.graph.finalize();
        this
    }

    /// Extend the graph with a newly inserted fact (paper §IV-A). Returns
    /// the **new** node ids: the fact node `v(f)` first, followed by value
    /// nodes for values not present before. Pre-existing value nodes gain
    /// edges but are not reported (their embeddings stay frozen).
    ///
    /// For a batch of facts prefer [`DbGraph::extend_with_facts`], which
    /// pays the CSR merge once instead of per fact.
    pub fn extend_with_fact(&mut self, db: &Database, fact_id: FactId) -> Vec<NodeId> {
        let new_nodes = self.add_fact_node(db, fact_id);
        self.graph.finalize();
        new_nodes
    }

    /// Extend the graph with a batch of newly inserted facts, buffering all
    /// their edges and merging them into the CSR arrays in **one** finalize
    /// pass. Returns the new node ids in insertion order (per fact: the
    /// fact node first, then any fresh value nodes).
    pub fn extend_with_facts(&mut self, db: &Database, fact_ids: &[FactId]) -> Vec<NodeId> {
        let mut new_nodes = Vec::new();
        for &fact_id in fact_ids {
            new_nodes.extend(self.add_fact_node(db, fact_id));
        }
        self.graph.finalize();
        new_nodes
    }

    fn add_fact_node(&mut self, db: &Database, fact_id: FactId) -> Vec<NodeId> {
        assert!(
            !self.fact_nodes.contains_key(&fact_id),
            "fact {fact_id} already has a node"
        );
        let mut new_nodes = Vec::new();
        let v = self.graph.add_node();
        self.kinds.push(NodeKind::Fact(fact_id));
        self.fact_nodes.insert(fact_id, v);
        new_nodes.push(v);

        let fact = db
            .fact(fact_id)
            // PANICS: never — callers pass ids of live facts only.
            .expect("fact must be live when added to the graph");
        for (attr, value) in fact.values().iter().enumerate() {
            if value.is_null() {
                continue;
            }
            let class = self.column_class[fact_id.rel.index()][attr];
            let key = (class, value.clone());
            let u = match self.value_nodes.get(&key) {
                Some(&u) => u,
                None => {
                    let u = self.graph.add_node();
                    self.kinds.push(NodeKind::Value {
                        class: key.0,
                        value: key.1.clone(),
                    });
                    self.value_nodes.insert(key, u);
                    new_nodes.push(u);
                    u
                }
            };
            self.graph.add_edge(v, u);
        }
        new_nodes
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// What node `id` represents.
    pub fn node_kind(&self, id: NodeId) -> &NodeKind {
        &self.kinds[id.index()]
    }

    /// The node of fact `f`, if present.
    pub fn fact_node(&self, fact: FactId) -> Option<NodeId> {
        self.fact_nodes.get(&fact).copied()
    }

    /// The value node for `(rel, attr, value)`, if present.
    pub fn value_node(&self, rel: RelationId, attr: usize, value: &Value) -> Option<NodeId> {
        let class = self.column_class[rel.index()][attr];
        self.value_nodes.get(&(class, value.clone())).copied()
    }

    /// Number of fact nodes.
    pub fn fact_node_count(&self) -> usize {
        self.fact_nodes.len()
    }

    /// Number of value nodes.
    pub fn value_node_count(&self) -> usize {
        self.value_nodes.len()
    }

    /// The FK-equivalence class of a column.
    pub fn column_class(&self, rel: RelationId, attr: usize) -> u32 {
        self.column_class[rel.index()][attr]
    }

    /// The kind table, `kinds()[n]` being what node `n` represents (for
    /// snapshotting — both lookup maps are derived from it).
    pub fn kinds(&self) -> &[NodeKind] {
        &self.kinds
    }

    /// Rebuild a `DbGraph` from snapshotted parts: the CSR graph and the
    /// kind table. The lookup maps are
    /// rebuilt from `kinds` and the column classes re-derived from
    /// `schema` — both are deterministic functions of their inputs, so a
    /// round trip reproduces the original graph exactly.
    ///
    /// # Panics
    /// If `kinds.len()` does not match the graph's node count.
    pub fn from_raw_parts(schema: &Schema, graph: Graph, kinds: Vec<NodeKind>) -> DbGraph {
        assert_eq!(kinds.len(), graph.node_count(), "kind table length");
        let (column_class, class_repr) = Self::column_classes(schema);
        let mut fact_nodes = BTreeMap::new();
        let mut value_nodes = HashMap::new();
        for (i, kind) in kinds.iter().enumerate() {
            match kind {
                NodeKind::Fact(f) => {
                    fact_nodes.insert(*f, NodeId(i as u32));
                }
                NodeKind::Value { class, value } => {
                    value_nodes.insert((*class, value.clone()), NodeId(i as u32));
                }
            }
        }
        DbGraph {
            graph,
            kinds,
            fact_nodes,
            value_nodes,
            column_class,
            class_repr,
        }
    }

    /// Human-readable description of a node, in the paper's notation
    /// (`v(f)` / `u(REL, attr, value)` with a representative column for
    /// identified nodes).
    pub fn describe(&self, schema: &Schema, id: NodeId) -> String {
        match self.node_kind(id) {
            NodeKind::Fact(f) => format!("v({f})"),
            NodeKind::Value { class, value } => {
                let (rel, attr) = self.class_repr[*class as usize];
                let rel_schema = schema.relation(rel);
                format!(
                    "u({}, {}, {})",
                    rel_schema.name, rel_schema.attributes[attr].name, value
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::movies::{movies_database_labeled, movies_schema};

    #[test]
    fn column_classes_merge_fk_chains() {
        let schema = movies_schema();
        let (classes, _) = DbGraph::column_classes(&schema);
        let movies = schema.relation_id("MOVIES").unwrap().index();
        let studios = schema.relation_id("STUDIOS").unwrap().index();
        let actors = schema.relation_id("ACTORS").unwrap().index();
        let collabs = schema.relation_id("COLLABORATIONS").unwrap().index();
        // MOVIES.studio ~ STUDIOS.sid
        assert_eq!(classes[movies][1], classes[studios][0]);
        // COLLABORATIONS.actor1 ~ COLLABORATIONS.actor2 ~ ACTORS.aid
        assert_eq!(classes[collabs][0], classes[actors][0]);
        assert_eq!(classes[collabs][1], classes[actors][0]);
        // COLLABORATIONS.movie ~ MOVIES.mid
        assert_eq!(classes[collabs][2], classes[movies][0]);
        // Unrelated columns stay distinct.
        assert_ne!(classes[movies][2], classes[studios][1]); // title vs name
        assert_ne!(classes[actors][1], classes[studios][1]); // name vs name!
    }

    #[test]
    fn bipartite_structure() {
        let (db, _) = movies_database_labeled();
        let g = DbGraph::build(&db);
        assert_eq!(g.fact_node_count(), 18);
        // Every edge connects a fact node and a value node.
        for id in g.graph().node_ids() {
            let is_fact = matches!(g.node_kind(id), NodeKind::Fact(_));
            for &n in g.graph().neighbors(id) {
                let n_is_fact = matches!(g.node_kind(n), NodeKind::Fact(_));
                assert_ne!(is_fact, n_is_fact, "graph must be bipartite");
            }
        }
    }

    #[test]
    fn fk_identification_connects_referencing_facts() {
        // m1 has studio=s03; s3 has sid=s03. Their fact nodes must share the
        // identified value node u(·, s03).
        let (db, ids) = movies_database_labeled();
        let g = DbGraph::build(&db);
        let movies = db.schema().relation_id("MOVIES").unwrap();
        let u = g.value_node(movies, 1, &Value::Text("s03".into())).unwrap();
        let v_m1 = g.fact_node(ids["m1"]).unwrap();
        let v_s3 = g.fact_node(ids["s3"]).unwrap();
        assert!(g.graph().has_edge(v_m1, u));
        assert!(g.graph().has_edge(v_s3, u));
        // And via STUDIOS.sid we find the same node.
        let studios = db.schema().relation_id("STUDIOS").unwrap();
        assert_eq!(
            g.value_node(studios, 0, &Value::Text("s03".into())),
            Some(u)
        );
    }

    #[test]
    fn same_constant_in_unrelated_columns_stays_distinct() {
        // "LA" occurs only in STUDIOS.loc; budgets 160 appear in MOVIES.budget
        // twice but give one node; actor worth 140 vs budget 150 are distinct
        // columns. Directly test the paper's "Universal" scenario: the studio
        // name "Universal" and a (hypothetical) movie title "Universal" must
        // be different nodes.
        let (mut db, _) = movies_database_labeled();
        let m7 = db
            .insert_into(
                "MOVIES",
                vec![
                    "m07".into(),
                    "s02".into(),
                    "Universal".into(),
                    Value::Null,
                    Value::Int(10),
                ],
            )
            .unwrap();
        let g = DbGraph::build(&db);
        let movies = db.schema().relation_id("MOVIES").unwrap();
        let studios = db.schema().relation_id("STUDIOS").unwrap();
        let title_node = g
            .value_node(movies, 2, &Value::Text("Universal".into()))
            .unwrap();
        let name_node = g
            .value_node(studios, 1, &Value::Text("Universal".into()))
            .unwrap();
        assert_ne!(
            title_node, name_node,
            "identification must respect FKs only"
        );
        assert!(g.fact_node(m7).is_some());
    }

    #[test]
    fn null_values_get_no_node() {
        let (db, ids) = movies_database_labeled();
        let g = DbGraph::build(&db);
        // m3's genre is null: v(m3) has 4 incident values, not 5.
        let v_m3 = g.fact_node(ids["m3"]).unwrap();
        assert_eq!(g.graph().degree(v_m3), 4);
    }

    #[test]
    fn figure_3_fragment() {
        // Figure 3 shows v(m4) adjacent to u(MOVIES,mid,m04)… and to the
        // identified studio node shared with v(s3); v(c2) adjacent to the
        // identified aid nodes of a4 and a5 and mid node of m4.
        let (db, ids) = movies_database_labeled();
        let g = DbGraph::build(&db);
        let movies = db.schema().relation_id("MOVIES").unwrap();
        let v_c2 = g.fact_node(ids["c2"]).unwrap();
        let v_m4 = g.fact_node(ids["m4"]).unwrap();
        let mid_m04 = g.value_node(movies, 0, &Value::Text("m04".into())).unwrap();
        assert!(g.graph().has_edge(v_c2, mid_m04));
        assert!(g.graph().has_edge(v_m4, mid_m04));
        // Budget 160 is shared between m2 and m4 (same column → same node).
        let budget160 = g.value_node(movies, 4, &Value::Int(160)).unwrap();
        assert!(g.graph().has_edge(v_m4, budget160));
        assert!(g
            .graph()
            .has_edge(g.fact_node(ids["m2"]).unwrap(), budget160));
    }

    #[test]
    fn incremental_extension_matches_full_rebuild() {
        let (mut db, ids) = movies_database_labeled();
        // Remove c4, build, then re-add and extend.
        let journal = reldb::cascade::cascade_delete(&mut db, ids["c4"], false).unwrap();
        let mut g = DbGraph::build(&db);
        let before_nodes = g.graph().node_count();
        reldb::cascade::restore_journal(&mut db, &journal).unwrap();
        let new_nodes = g.extend_with_fact(&db, ids["c4"]);
        // c4 = (a01, a04, m06): all three values already have nodes, so only
        // v(c4) is new.
        assert_eq!(new_nodes.len(), 1);
        assert_eq!(g.graph().node_count(), before_nodes + 1);
        // Edge structure equals the from-scratch graph's.
        let full = DbGraph::build(&db);
        assert_eq!(full.graph().edge_count(), g.graph().edge_count());
        let v_c4 = g.fact_node(ids["c4"]).unwrap();
        assert_eq!(g.graph().degree(v_c4), 3);
    }

    #[test]
    fn describe_uses_paper_notation() {
        let (db, ids) = movies_database_labeled();
        let g = DbGraph::build(&db);
        let v = g.fact_node(ids["m1"]).unwrap();
        assert!(g.describe(db.schema(), v).starts_with("v("));
        let movies = db.schema().relation_id("MOVIES").unwrap();
        let u = g
            .value_node(movies, 2, &Value::Text("Titanic".into()))
            .unwrap();
        assert_eq!(g.describe(db.schema(), u), "u(MOVIES, title, Titanic)");
    }
}
