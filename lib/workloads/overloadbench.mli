(** Overload benchmark: an {e open-loop} read/write mix issued at a fixed
    offered rate — unlike the closed-loop chaos/contention drivers, which
    self-throttle and therefore can never push the cluster past its knee —
    measuring goodput, tail latency, and shed rate with the flow-control
    subsystem ({!Weaver_flow.Flow}: deadline-based admission, queue caps,
    credit-based gatekeeper→shard backpressure) either on or off.

    Clients run single-attempt ([no_retry_policy]) so each issued request
    is classified exactly once: ok, timeout, shed, or other. Everything is
    deterministic in [ov_seed]: the same options produce a bit-identical
    {!to_json} string, and the issuance RNG is a private stream shared by
    both arms so the offered workloads are identical. *)

type opts = {
  ov_seed : int;
  ov_gatekeepers : int;
  ov_shards : int;
  ov_clients : int;  (** request handles rotated round-robin *)
  ov_rate : float;  (** offered load, requests per (virtual) second *)
  ov_duration : float;  (** issuance window, virtual µs *)
  ov_drain : float;  (** extra run time after issuance stops, µs *)
  ov_timeout : float;  (** client reply timeout, virtual µs *)
  ov_read_fraction : float;
  ov_flow : bool;  (** [true] → enable the three flow knobs below *)
  ov_admission_limit : int;
  ov_deadline_budget : float;
  ov_shard_credits : int;
}

val default_opts : opts
(** seed 42, 2 gatekeepers, 4 shards, 8 client handles, 50k req/s offered
    over 200 ms, 150 ms drain, 40 ms timeout, 50% reads, flow off
    (limit 64 / budget 1.2 ms / 64 credits when enabled). *)

val saturation_rate : gatekeepers:int -> gk_op_cost:float -> float
(** The admission-capacity knee in requests per second: gatekeepers admit
    serially at [gk_op_cost] µs per request, so capacity is one request
    per [gk_op_cost] per gatekeeper. *)

type result = {
  v_flow : bool;
  v_seed : int;
  v_rate : float;
  v_offered : int;  (** requests actually issued *)
  v_ok : int;
  v_timeout : int;
  v_shed : int;  (** rejected with a ["shed:"] error *)
  v_other_err : int;
  v_goodput : float;  (** ok completions per second of the offered window *)
  v_p50 : float;  (** latency of ok requests only, µs *)
  v_p99 : float;
  v_shed_rate : float;  (** shed / offered *)
  v_shed_queue : int;  (** gatekeeper counters, by shed reason *)
  v_shed_deadline : int;
  v_shed_credit : int;
  v_credit_msgs : int;
  v_nop_msgs : int;  (** control traffic — must match across arms *)
  v_heartbeats : int;
  v_retries : int;
  v_fingerprint : int * int * int * int * int * int;
      (** (ok, timeout, shed, tx_committed, net sends, nop msgs) — equal
          across reruns with equal options *)
}

val run : opts -> result

val table : (float * result * result) list -> string
(** Column header, then a flow-off and a flow-on row per (load multiple,
    off, on) triple, as the bench prints them. *)

val to_json : result -> string
(** Canonical JSON rendering (stable field order, fixed float precision) —
    byte-identical across runs with equal options. *)
