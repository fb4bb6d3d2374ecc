//! Execution statistics for simulator runs.

/// Counters accumulated by the synchronous round engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Rounds executed (including the final quiescent-detection round).
    pub rounds_run: u32,
    /// Rounds in which at least one node changed state — the paper's
    /// "number of rounds of information exchange" metric (Fig. 2).
    pub active_rounds: u32,
    /// Point-to-point messages delivered (each neighbor exchange along a
    /// usable link in one direction counts once).
    pub messages: u64,
    /// Number of node state changes, summed over all rounds.
    pub state_changes: u64,
}

/// Counters accumulated by the discrete-event engine.
///
/// Message accounting is conservative: every send attempt is counted
/// exactly once in [`EventStats::sends`], and every attempt meets
/// exactly one fate, so
/// `delivered + dropped + lost == sends + duplicated`
/// holds at every quiescent point (duplicates are extra copies the
/// channel injects; each is eventually delivered or dropped like a
/// primary copy). Timer and kill events are control events, not
/// messages, and never enter this balance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Message send attempts absorbed from actors (counted before any
    /// fault/channel fate is decided; excludes channel duplicates).
    pub sends: u64,
    /// Messages successfully delivered.
    pub delivered: u64,
    /// Messages dropped at a faulty destination or over a faulty link.
    pub dropped: u64,
    /// Messages lost by the [`crate::channel::ChannelModel`] (loss is
    /// channel noise on a usable link; `dropped` is fault-stop silence).
    pub lost: u64,
    /// Extra copies injected by channel duplication.
    pub duplicated: u64,
    /// Retransmissions performed by the reliable layer
    /// (`crate::reliable`), reported via [`crate::event::Ctx::note_retransmits`].
    pub retransmitted: u64,
    /// Acknowledgements sent by the reliable layer, reported via
    /// [`crate::event::Ctx::note_acks`].
    pub acked: u64,
    /// Timer events fired.
    pub timers: u64,
    /// Timer events silently discarded because their node had
    /// fault-stopped before they fired. Kept out of `dropped` — a
    /// quashed timer is not a lost message — so the send/fate balance
    /// stays exact. (An earlier accounting folded these, and kills of
    /// already-dead nodes, into `dropped`.)
    pub timers_quashed: u64,
    /// Nodes fault-stopped mid-run by an injected kill
    /// ([`crate::event::EventEngine::inject_kill`]). Kills are
    /// idempotent: re-killing a dead or absent node changes nothing.
    pub killed: u64,
    /// Virtual time of the last processed event.
    pub end_time: u64,
}
