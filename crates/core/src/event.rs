use jetstream_algorithms::Value;
use jetstream_graph::VertexId;

/// A lightweight message triggering computation at its target vertex (§4.2).
///
/// GraphPulse events are `(target, payload)` tuples; JetStream extends the
/// payload with a delete flag for the recovery phase (§3.3) and, under
/// dependency-aware propagation (DAP, §5.2), with the id of the vertex whose
/// update produced the event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Destination vertex.
    pub target: VertexId,
    /// The delta carried to the target (for delete events under VAP: the
    /// contribution that previously flowed over the deleted path).
    pub payload: Value,
    /// Delete flag: this event tags/resets impacted vertices during the
    /// recovery phase (Algorithm 4).
    pub is_delete: bool,
    /// Source vertex that generated the event (DAP only; `None` otherwise
    /// and for initial events).
    pub source: Option<VertexId>,
}

// The queue holds one potential event per vertex; any growth of this
// struct multiplies directly into queue memory and drain bandwidth. The
// current layout packs to 24 bytes (payload + target + Option<source> +
// one flag byte); see DESIGN.md §12 before relaxing the bound.
const _: () = assert!(std::mem::size_of::<Event>() <= 24, "Event grew past 24 bytes");

impl Event {
    /// A regular value-carrying event.
    pub fn regular(target: VertexId, payload: Value) -> Self {
        Event { target, payload, is_delete: false, source: None }
    }

    /// A regular event stamped with its source vertex (DAP).
    pub fn regular_from(source: VertexId, target: VertexId, payload: Value) -> Self {
        Event { target, payload, is_delete: false, source: Some(source) }
    }

    /// A delete event carrying the (previously propagated) contribution
    /// `payload` from `source`.
    pub fn delete(source: VertexId, target: VertexId, payload: Value) -> Self {
        Event { target, payload, is_delete: true, source: Some(source) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_flags() {
        let r = Event::regular(3, 1.5);
        assert!(!r.is_delete && r.source.is_none());

        let d = Event::delete(1, 3, 9.0);
        assert!(d.is_delete);
        assert_eq!(d.source, Some(1));

        let s = Event::regular_from(7, 3, 2.0);
        assert_eq!(s.source, Some(7));
    }
}
