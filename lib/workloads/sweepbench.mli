(** Announce-period sweep (paper Fig. 14): proactive vs reactive
    coordination cost as τ varies from 10 µs to 1 s by decades. For each
    τ a fresh 2-gatekeeper, 4-shard cluster loads a uniform 1k-vertex,
    8k-edge graph and runs a 90%-read TAO mix with 20 clients for
    200 ms. Short periods pay in vector-clock announces; long ones
    push ordering to the timeline oracle. Deterministic in [sw_seed]. *)

type opts = { sw_seed : int }

val default_opts : opts
(** seed 14. *)

type result = {
  sw_points : (float * float * float) list;
      (** per τ: (τ, announces per completed op, oracle consults per
          completed op) *)
  sw_fingerprint : (int * int * int) list;
      (** per τ: (completed ops, announces, oracle consults) *)
}

val run : opts -> result

val table : result -> string
(** Column header and one row per τ, as the bench prints them. *)
