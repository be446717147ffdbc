(** Write contention on one shard (paper §3.4, §4.3): the historical
    blocking refinement, where one oracle consult freezes the whole shard
    event loop, against the non-blocking, coalesced path
    ([Config.oracle_nonblocking]).

    Nine closed-loop writers commit single-key property writes over 16
    Zipf-ranked keys on 3 gatekeepers and 1 shard. Each writer is pinned
    to a gatekeeper and the announce period is long (τ = 50 ms), so
    concurrent stamps stay mutually undecided and the pairs genuinely
    reach the shard. Same-key races are settled at the gatekeepers by the
    last-update check, so the skew trades shard-level (cross-key)
    conflicts for gatekeeper-level (same-key) aborts. An aborted write
    retries. Deterministic in [ct_seed]. *)

type opts = {
  ct_seed : int;
  ct_theta : float;  (** Zipf key skew *)
  ct_nonblocking : bool;
  ct_per_writer : int;  (** commits per writer *)
}

val default_opts : opts
(** seed 7, θ = 0, non-blocking, 40 commits per writer: the bench's. *)

val quick_opts : opts
(** seed 42, θ = 0.6, non-blocking, 20 commits per writer: the command
    line's defaults. *)

type result = {
  cr_committed : int;
  cr_aborted : int;
  cr_consults : int;  (** shard oracle consults *)
  cr_batched : int;  (** undecided pairs that joined an in-flight consult *)
  cr_consults_per_tx : float;  (** consults per committed transaction *)
  cr_p50_apply : float;  (** shard enqueue → apply, µs *)
  cr_p99_apply : float;
  cr_p99_ack : float;  (** client-observed commit latency, µs *)
  cr_fingerprint : int * int * int * int * int * int;
      (** (committed, aborted, consults, batched, net sends, NOPs) *)
}

val run : opts -> result

val table : (float * result * result) list -> string
(** Column header, then a blocking and a non-blocking row per
    (θ, blocking, non-blocking) triple. *)

val to_json : result -> string
(** One arm as a JSON object, byte-identical across equal runs. *)
