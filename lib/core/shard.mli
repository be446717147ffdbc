(** Shard server — holds one in-memory partition of the multi-version graph
    and obeys the refinable-timestamp order (paper §3.2, §4.1–§4.2).

    The shard keeps one FIFO queue of incoming transactions per gatekeeper,
    prioritized by timestamp, and its event loop executes the globally
    earliest transaction whenever every queue is non-empty (NOPs guarantee
    liveness). Mutually concurrent queue heads are serialized by the
    timeline oracle, whose irrevocable decisions are cached locally. Node
    programs are delayed until every preceding or concurrent transaction
    has executed, then run against the snapshot at their timestamp,
    propagating hops to peer shards. *)

type t

val spawn : ?replica:int -> Runtime.t -> sid:int -> epoch:int -> t
(** Create shard [sid], register its handler at {!Runtime.shard_addr}, and
    start its heartbeat timer. A replacement spawned after a failure
    (with the current [epoch]) restores its partition from the backing
    store.

    With [~replica:r], create read replica [r] of shard [sid] instead
    (§6.4) at {!Runtime.replica_addr}: a whole-partition follower of the
    primary, seeded from the backing store, fed by the primary's
    replication stream and reseeded by it after restarts and epoch
    barriers. It owns nothing (no queues, heartbeats, watermark round or
    snapshots) and runs weak node-program batches ungated at its applied
    state, sending hops to the sibling replicas of the target shards. *)

val retire : t -> unit

val sid : t -> int
val epoch : t -> int

val vertex : t -> string -> Weaver_graph.Mgraph.vertex option
(** In-memory record of a vertex on this shard (tests/introspection). *)

val resident_vertices : t -> int

val resident_ids : t -> string list
(** Sorted vids of the vertices resident in shard memory
    (tests/introspection — crash-recovery determinism checks). *)

val applied : t -> int
(** Replication-stream updates this copy has applied as a follower. *)

val queue_depths : t -> int array
(** Pending transactions per gatekeeper queue (tests). *)

(** {1 Versioned snapshots} ([Config.snapshot_reads])

    At each watermark boundary the shard publishes a refcounted immutable
    snapshot of its partition, captured from the durable store (which keeps
    the full version history): a persistent mirror of the store records
    the shard owns, brought up to date from the store journal, whose root
    is the snapshot. Historical node programs whose timestamp
    precedes a published snapshot pin it and run lock-free against it —
    skipping the refinable-timestamp gate, demand paging, and the LRU.
    Pinned snapshots clamp the compaction watermark. *)

val snapshots_retained : t -> int
(** Snapshots currently held (pinned or within the retention window). *)

val snapshots_pinned : t -> int
(** Snapshots pinned by in-flight node programs. *)

val latest_snapshot :
  t -> (Weaver_vclock.Vclock.t * (string * Weaver_graph.Mgraph.vertex) list) option
(** The newest published snapshot: its stamp and its records sorted by vid
    (tests/introspection; O(partition)). *)

val gc_floor : t -> Weaver_vclock.Vclock.t option
(** Effective watermark of the last compaction: versions strictly below it
    are gone from the in-memory copy, so unpinned historical reads below
    it are answered with a retryable ["snapshot-gced"] error. *)

val gc_rounds : t -> int
(** Compaction rounds this shard has run (one per gatekeeper watermark
    once every gatekeeper has sent one). *)

val gc_swept : t -> int
(** Records handed to {!Weaver_graph.Mgraph.compact} over this shard's
    life: only records holding a closed lifespan are, so this counts
    O(changes), not O(partition) per round. A deterministic work counter,
    kept out of the metrics registry. *)

val reload_with : t -> (string * Weaver_graph.Mgraph.vertex) list -> unit
(** Replace the partition with records already read from the backing
    store: this partition's durable records, sorted by vid (bulk
    preloading, which scans the store once for every shard; recovery
    scans it itself). *)

val resync : t -> unit
(** Crash-restart resynchronization within the current epoch: drop queued
    transactions and parked programs, re-baseline every per-gatekeeper
    FIFO channel, and reload the partition from the backing store. Used
    by fault-plan restarts that revive a shard in place before the
    failure detector replaces it; must be called before the network
    endpoint is marked alive again. *)

(** {1 Replication} ([Config.enable_replication], [Config.read_replicas])

    One credit-gated owner→follower stream serves both kinds of copy. As
    an {e owner}, the shard streams applied ops to its read replicas
    (whole transactions) and to the followers of its replicated hot ranges
    ({!Weaver_repl.Repl}; the ops landing in each range), advances range
    followers with watermark heartbeats, and reseeds any follower whose
    stream was interrupted (credit exhaustion, restart, epoch barrier)
    wholesale at the next watermark. As a range {e follower}, it keeps
    timestamp-consistent copies of other owners' hot ranges and serves
    node-program reads whose stamp its replication watermark covers. *)

val repl_owned_ranges : t -> int list
(** Ranges this shard owns and replicates out (sorted; tests/CLI). *)

val on_peer_restart : t -> peer:t -> unit
(** A peer copy (a shard following one of our ranges, or one of our read
    replicas) crash-restarted, losing its follower copies: mark it dirty
    in every stream it follows (reseeded at the next watermark) and
    refill its stream-credit column. Called by the cluster fault layer. *)
