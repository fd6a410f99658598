//! The centralized auditing baseline (paper §2, Figure 1).
//!
//! "The operational information systems submit the logging data to a
//! log repository subsystem, and then the auditor uses the log
//! repository to generate the auditing reports." One auditor, absolute
//! trust, full visibility: every record arrives in the clear and every
//! query is answered locally. This is the system the DLA cluster
//! replaces; benchmarks compare against it for cost *and* for the
//! confidentiality metrics (which are identically zero here — the
//! auditor sees everything).

use crate::query::Criteria;
use crate::AuditError;
use dla_logstore::model::{Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_logstore::store::GlsnAllocator;
use dla_net::wire::Writer;
use dla_net::{NetConfig, NodeId, SessionId, SimNet};
use std::collections::BTreeMap;

/// The Figure 1 auditor: one repository, plaintext storage, local
/// query answering.
pub struct CentralizedAuditor {
    schema: Schema,
    records: BTreeMap<Glsn, LogRecord>,
    allocator: GlsnAllocator,
    net: SimNet,
    users: usize,
    max_users: usize,
}

impl std::fmt::Debug for CentralizedAuditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CentralizedAuditor({} records)", self.records.len())
    }
}

impl CentralizedAuditor {
    /// Creates the auditor. Network layout: index 0 is the repository,
    /// `1..=max_users` are user endpoints.
    #[must_use]
    pub fn new(schema: Schema, max_users: usize) -> Self {
        CentralizedAuditor {
            schema,
            records: BTreeMap::new(),
            allocator: GlsnAllocator::default(),
            net: SimNet::new(1 + max_users, NetConfig::ideal()),
            users: 0,
            max_users,
        }
    }

    /// Registers a user endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Config`] when capacity is exhausted.
    pub fn register_user(&mut self) -> Result<NodeId, AuditError> {
        if self.users >= self.max_users {
            return Err(AuditError::Config("user capacity exhausted".into()));
        }
        self.users += 1;
        Ok(NodeId(self.users))
    }

    /// Logs a record: the **whole plaintext record** ships to the
    /// repository (the confidentiality cost of Figure 1) in a single
    /// message.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Log`] on schema violations or network
    /// failure.
    pub fn log_record(&mut self, user: NodeId, record: &LogRecord) -> Result<Glsn, AuditError> {
        self.schema
            .validate(record)
            .map_err(|e| AuditError::Log(e.to_string()))?;
        let glsn = (self.allocator.allocate()).map_err(|e| AuditError::Log(e.to_string()))?;
        let mut stamped = LogRecord::new(glsn);
        for (name, value) in record.iter() {
            stamped.insert(name.clone(), value.clone());
        }
        let mut w = Writer::new();
        w.put_u8(0x50).put_bytes(&stamped.to_canonical_bytes());
        let root = SessionId::ROOT;
        self.net.send_on(root, user, NodeId(0), w.finish());
        (self.net.recv_from_on(root, NodeId(0), user)).map_err(AuditError::Net)?;
        self.records.insert(glsn, stamped);
        Ok(glsn)
    }

    /// Answers a query locally (no collaboration, no confidentiality).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Parse`] on evaluation failures.
    pub fn query(&mut self, criteria: &Criteria) -> Result<Vec<Glsn>, AuditError> {
        let mut out = Vec::new();
        for (glsn, record) in &self.records {
            let matched = criteria
                .eval(record)
                .map_err(|e| AuditError::Parse(e.to_string()))?;
            if matched {
                out.push(*glsn);
            }
        }
        Ok(out)
    }

    /// Parses and answers a textual query.
    ///
    /// # Errors
    ///
    /// As [`CentralizedAuditor::query`], plus parse errors.
    pub fn query_text(&mut self, criteria: &str) -> Result<Vec<Glsn>, AuditError> {
        let parsed = crate::parser::parse(criteria, &self.schema)
            .map_err(|e| AuditError::Parse(e.to_string()))?;
        self.query(&parsed)
    }

    /// Number of stored records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the repository is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The network (for traffic comparison against the DLA cluster).
    #[must_use]
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// **The Figure 1 problem, as an API**: the auditor can read any
    /// record wholesale, no ticket required. The DLA cluster has no
    /// such method — that asymmetry *is* the paper's contribution.
    pub fn read_everything(&self) -> impl Iterator<Item = (&Glsn, &LogRecord)> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_logstore::gen::paper_table1;

    fn loaded() -> CentralizedAuditor {
        let mut auditor = CentralizedAuditor::new(Schema::paper_example(), 3);
        let user = auditor.register_user().unwrap();
        for record in paper_table1() {
            auditor.log_record(user, &record).unwrap();
        }
        auditor
    }

    #[test]
    fn queries_match_reference_semantics() {
        let mut auditor = loaded();
        assert_eq!(auditor.query_text("c1 > 30").unwrap().len(), 3);
        assert_eq!(
            auditor
                .query_text("protocol = 'TCP' AND c2 < 100.00")
                .unwrap()
                .len(),
            1
        );
        assert_eq!(auditor.query_text("c1 > 1000").unwrap().len(), 0);
    }

    #[test]
    fn logging_ships_whole_records() {
        let auditor = loaded();
        assert_eq!(auditor.len(), 5);
        // 5 log messages, each carrying a full canonical record.
        assert_eq!(auditor.net().stats().messages_sent, 5);
        assert!(auditor.net().stats().bytes_sent > 5 * 100);
    }

    #[test]
    fn auditor_sees_everything() {
        let auditor = loaded();
        let visible: Vec<_> = auditor.read_everything().collect();
        assert_eq!(visible.len(), 5);
        assert_eq!(visible[0].1.len(), 7, "full records, every attribute");
    }

    #[test]
    fn schema_still_enforced() {
        let mut auditor = CentralizedAuditor::new(Schema::paper_example(), 1);
        let user = auditor.register_user().unwrap();
        let bad = LogRecord::new(Glsn(0)).with("salary", dla_logstore::model::AttrValue::Int(1));
        assert!(auditor.log_record(user, &bad).is_err());
    }

    #[test]
    fn capacity_enforced() {
        let mut auditor = CentralizedAuditor::new(Schema::paper_example(), 1);
        assert!(auditor.register_user().is_ok());
        assert!(auditor.register_user().is_err());
    }
}
