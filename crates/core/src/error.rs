use acx_geom::GeomError;
use acx_storage::{Corruption, StoreError, WalError};

/// Errors raised by the adaptive clustering index.
#[derive(Debug)]
pub enum IndexError {
    /// The configuration is internally inconsistent.
    InvalidConfig(String),
    /// An object's dimensionality does not match the index.
    DimensionMismatch {
        /// Dimensionality the index was created with.
        expected: usize,
        /// Dimensionality of the offending value.
        actual: usize,
    },
    /// Insertion of an object id that is already present.
    DuplicateObject(u32),
    /// Removal or lookup of an object id that is not present.
    UnknownObject(u32),
    /// Insertion or update of an object the root cluster's signature
    /// rejects: some coordinate lies outside the indexed domain.
    OutOfDomain(u32),
    /// Underlying geometry error.
    Geom(GeomError),
    /// Underlying persistence error.
    Store(StoreError),
    /// Underlying write-ahead-log error.
    Wal(WalError),
    /// A surviving WAL record could not be applied to the checkpoint it
    /// was logged against — the two artifacts are mismatched or one of
    /// them is corrupt past what checksums can detect.
    Recovery {
        /// Zero-based index of the offending record in the replayed
        /// suffix.
        record: u64,
        /// What went wrong applying it.
        detail: String,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            IndexError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: index has {expected}, got {actual}")
            }
            IndexError::DuplicateObject(id) => write!(f, "object #{id} already indexed"),
            IndexError::UnknownObject(id) => write!(f, "object #{id} not found"),
            IndexError::OutOfDomain(id) => write!(f, "object #{id} lies outside the domain"),
            IndexError::Geom(e) => write!(f, "geometry error: {e}"),
            IndexError::Store(e) => write!(f, "store error: {e}"),
            IndexError::Wal(e) => write!(f, "wal error: {e}"),
            IndexError::Recovery { record, detail } => {
                write!(f, "recovery failed at wal record {record}: {detail}")
            }
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Geom(e) => Some(e),
            IndexError::Store(e) => Some(e),
            IndexError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for IndexError {
    fn from(e: GeomError) -> Self {
        IndexError::Geom(e)
    }
}

impl From<StoreError> for IndexError {
    fn from(e: StoreError) -> Self {
        IndexError::Store(e)
    }
}

impl From<Corruption> for IndexError {
    fn from(c: Corruption) -> Self {
        IndexError::Store(StoreError::Corrupt(c))
    }
}

impl From<WalError> for IndexError {
    fn from(e: WalError) -> Self {
        IndexError::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = IndexError::DimensionMismatch {
            expected: 16,
            actual: 4,
        };
        assert!(e.to_string().contains("16"));
        assert!(e.to_string().contains('4'));
        assert!(IndexError::DuplicateObject(9).to_string().contains("#9"));
        assert!(IndexError::UnknownObject(3).to_string().contains("#3"));
    }

    #[test]
    fn wraps_geom_errors() {
        let ge = GeomError::EmptyRect;
        let e: IndexError = ge.into();
        assert!(matches!(e, IndexError::Geom(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn wraps_wal_errors_with_fault_context() {
        let we = WalError::Io {
            op: "append",
            offset: 96,
            source: std::io::Error::from(std::io::ErrorKind::StorageFull),
        };
        let e: IndexError = we.into();
        let text = e.to_string();
        assert!(text.contains("append"), "io op surfaces: {text}");
        assert!(text.contains("96"), "byte offset surfaces: {text}");
        assert!(std::error::Error::source(&e).is_some());
        match &e {
            IndexError::Wal(w) => assert_eq!(w.io_kind(), Some(std::io::ErrorKind::StorageFull)),
            other => panic!("expected Wal variant, got {other:?}"),
        }
    }

    #[test]
    fn wraps_corrupt_wal_with_record_index() {
        let we = WalError::Corrupt(Corruption {
            offset: 44,
            record: 7,
            reason: "checksum mismatch".into(),
        });
        let e: IndexError = we.into();
        let text = e.to_string();
        assert!(text.contains("44") && text.contains('7'), "{text}");
        assert!(text.contains("checksum mismatch"), "{text}");
    }

    #[test]
    fn recovery_error_reports_record_index() {
        let e = IndexError::Recovery {
            record: 12,
            detail: "object #3 already indexed".into(),
        };
        let text = e.to_string();
        assert!(text.contains("12") && text.contains("#3"), "{text}");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn store_tail_corruption_carries_fault_context() {
        let se = StoreError::Corrupt(Corruption {
            record: 5,
            offset: 1024,
            reason: "record checksum mismatch".into(),
        });
        assert_eq!(se.io_kind(), None);
        let e: IndexError = se.into();
        let text = e.to_string();
        assert!(text.contains('5') && text.contains("1024"), "{text}");
    }

    #[test]
    fn io_conversions_preserve_kind() {
        let io = std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
        let se: StoreError = io.into();
        assert_eq!(se.io_kind(), Some(std::io::ErrorKind::UnexpectedEof));
        let io = std::io::Error::from(std::io::ErrorKind::PermissionDenied);
        let we: WalError = io.into();
        assert_eq!(we.io_kind(), Some(std::io::ErrorKind::PermissionDenied));
        let e: IndexError = IndexError::Wal(we);
        assert!(e.to_string().contains("wal error"));
    }
}
