(** Elasticity under a migrating hot spot (paper §4.6): the live
    heat-driven balancer ([Config.enable_rebalance]) on or off.

    128 vertices sit on 2 gatekeepers and 4 shards. In phase A, 8
    closed-loop writers commit 120 property writes each, uniformly over
    16 vertices that all start on shard 0. In phase B the hot set flips
    to 16 of shard 1's initial residents. With the balancer on, the
    planner senses the skew and spreads the hot set, and after the flip
    the skew returns near its pre-flip value; with it off, the hot spot
    stays pinned. Migrations abort racing writers, which retry, so
    goodput stays close across arms. Deterministic in [re_seed], move
    log included. *)

type opts = { re_seed : int; re_rebalance : bool }

val default_opts : opts
(** seed 19, balancer on. *)

type result = {
  rb_committed : int;
  rb_aborted : int;
  rb_skew_pre : float;  (** end of phase A *)
  rb_skew_spike : float;  (** 5 ms after the hot-set flip *)
  rb_skew_post : float;  (** end of phase B *)
  rb_goodput : float;  (** writer commits per virtual second, both phases *)
  rb_rounds : int;  (** planner rounds *)
  rb_moves : int;  (** migrations committed *)
  rb_skipped : int;  (** migrations failed or timed out *)
  rb_move_log : Weaver_core.Balancer.move list;  (** oldest first *)
  rb_fingerprint : int * int * int * int * int;
      (** (committed, aborted, oracle consults, net sends, NOPs) *)
}

val run : opts -> result

val table : (string * result) list -> string
(** Column header, then one row per labelled arm. *)

val to_json : result -> string
(** One arm as a JSON object, move log included; byte-identical across
    equal runs. *)
