(** A traced mixed run: the request-tracing scenario behind the latency
    breakdown. A 2-gatekeeper, 4-shard cluster with [Config.enable_tracing]
    loads a uniform 500-vertex, 2k-edge graph. One client then commits
    [mx_txs] transactions in turn, each adding a random edge and setting
    a property on its source, and runs [mx_progs] one-hop [get_edges]
    programs from random vertices. Deterministic. *)

type opts = { mx_txs : int; mx_progs : int }

val default_opts : opts
(** 200 transactions, 50 programs. *)

type result = {
  mx_cluster : Weaver_core.Cluster.t;
      (** the drained cluster, for its metrics, tracer and slow log *)
  mx_tx_traces : int list;  (** request ids of the transactions, in order *)
  mx_prog_traces : int list;  (** request ids of the programs, in order *)
  mx_fingerprint : int * int * int;
      (** (tx committed, programs completed, net sends) *)
}

val run : opts -> result

val phases : Weaver_core.Cluster.t -> (string * int * float * float) list
(** Latency of a traced run by phase, as (phase, samples, p50 µs, p99 µs):
    gatekeeper admission, store round trips, shard queueing, oracle
    waits, and transaction and program service. A phase with no samples
    reads (0, 0, 0). *)

val phase_table : Weaver_core.Cluster.t -> string
(** {!phases} as a table of p50 and p99 (µs) and sample count. *)
