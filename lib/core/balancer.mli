(** Live vertex migration planner (paper §4.6): two objectives, and one
    act path that issues every move through the ordinary OCC migrate path
    and records it in {!move_log} and the [rebal.*] counters.

    - {b load} ({!run_round}): a periodic cluster-owned round that closes
      the sense→plan→act loop over {!Weaver_obs.Heat};
    - {b locality} ({!colocate}): "dynamically colocating a vertex with
      the majority of its neighbors, using streaming graph partitioning
      algorithms" — a one-shot LDG pass over the live graph.

    Each load round it reads the decayed per-shard loads, finds shards loaded
    beyond [hysteresis × mean], picks their hottest
    vertices from the Space-Saving sketches (verified against the live
    directory), and issues at most [Config.rebalance_max_moves]
    migrations to the least-loaded live shards — through the ordinary OCC
    migrate path, so there is no stop-the-world and concurrent writers
    win races against the mover. Failed or timed-out moves count as
    [rebal.skipped] and are simply retried by a later round's plan.

    Like {!Weaver_obs.Health}, the planner is edge-triggered: inside the
    hysteresis band it does nothing, and while issued moves are still in
    flight a round only observes (a vertex never has two outstanding
    migrations). Anti-thrash: a vertex is not reconsidered within one
    heat half-life of its last move (the load it left behind decays over
    exactly that horizon), and a move only happens when the destination
    stays lighter than the source afterwards. Every planning input is deterministic simulation state,
    so {!move_log} is bit-identical across reruns of the same seed.

    Owned by {!Cluster} behind the default-off [Config.enable_rebalance];
    rounds run every [Config.rebalance_period] µs. Progress lands in the
    [rebal.rounds] / [rebal.moves] / [rebal.skipped] counters. *)

type t

val hysteresis : float
(** Overload threshold as a multiple of the mean decayed shard load: 1.5.
    A shard is overloaded only above [hysteresis × mean], and a candidate
    vertex moves only if its range heat exceeds the [(hysteresis − 1) ×
    mean] band. The gap is what prevents move thrash on a merely noisy
    balanced cluster. *)

type move = {
  mv_time : float;  (** virtual time the move was issued *)
  mv_vid : string;
  mv_from : int;
  mv_to : int;
}

val create : Runtime.t -> t
(** Creates the planner and its private client session (so enabling the
    balancer never perturbs the address plan of user clients created
    before it). *)

val run_round : t -> unit
(** Execute one heat sense→plan→act round now. {!Cluster} drives this
    from a periodic engine event; tests may call it directly.
    @raise Invalid_argument unless the runtime has heat enabled. *)

val colocate : t -> max_moves:int -> unit
(** One locality pass: computes the {!Weaver_partition.Partition.ldg}
    placement of the live graph in the backing store (live vertices and
    their live out-edges, in store key order) and issues a migration for
    each vertex off its target, skipping vertices with a move in flight,
    at most [max_moves] in all. Returns at once; drive the simulation
    until {!pending_moves} is 0 to let the moves land. *)

val move_log : t -> move list
(** Every move ever issued, oldest first — the deterministic audit log
    (issued ≠ succeeded; see [rebal.moves] vs [rebal.skipped]). *)

val pending_moves : t -> int
(** Issued migrations whose outcome has not yet arrived. *)
