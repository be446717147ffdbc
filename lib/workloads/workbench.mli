(** The simulator's own cost per simulated operation, as deterministic
    work counters: the one harness behind [bench/main.exe work].

    Three arms run in a fixed order, each counting over its measured
    window only:
    - two macro arms: a table1-style closed-loop TAO mix on 2 gatekeepers
      and 4 shards, [wk_clients] clients for [wk_duration] virtual µs,
      over a uniform graph of [wk_small] and then [wk_large] vertices
      (2 edges per vertex);
    - a paging arm: 1 gatekeeper and 1 shard holding at most 64 of 512
      vertices, serving [wk_paging_reads] uniform [get_node] reads, so
      most reads page a vertex in and evict another.

    Per arm it records engine events, messages, oracle consults, vertices
    read, page-ins, evictions, compaction rounds and records swept (all
    exact counts), plus minor and promoted words per op, measured after a
    [Gc.minor ()]. The small macro arm then reruns with a per-kind
    message counter: the rerun must reproduce every count and the
    fingerprint, and supplies messages by [Msg.kind]. The counter would
    perturb the words of the arm it runs in, so no gated arm carries it.

    Counts repeat exactly. Words repeat exactly only in a fresh process
    running the arms in this order; after other runs in the same process,
    promoted words were measured up to ~5% off. CPU seconds are reported
    and never gated. *)

type opts = {
  wk_seed : int;  (** cluster seed of the macro arms *)
  wk_graph_seed : int;  (** graph seed of the macro arms *)
  wk_small : int;  (** macro vertices, small arm *)
  wk_large : int;  (** macro vertices, large arm *)
  wk_clients : int;
  wk_duration : float;  (** macro window, virtual µs *)
  wk_paging_reads : int;
}

val default_opts : opts
(** seeds 11 and 23, 2k and 100k vertices, 32 clients, 400 ms, 5,000
    paging reads: the bench's. *)

type arm = {
  a_name : string;
  a_ops : int;  (** operations completed in the window *)
  a_counts : (string * int) list;
      (** counter name → count over the window. Names are the metrics
          registry's ([engine.events], [net.sent], [oracle.consults],
          [prog.vertices_read], [paging.page_ins], [paging.evictions])
          plus [gc.rounds] and [gc.swept] from
          {!Weaver_core.Cluster.shard_gc_work}. *)
  a_minor : float;  (** minor words allocated per op *)
  a_promoted : float;  (** words promoted per op *)
  a_cpu_s : float;  (** process CPU seconds; not gated *)
}

type result = {
  w_opts : opts;
  w_arms : arm list;  (** small macro, large macro, paging *)
  w_kinds : arm;
      (** the small macro rerun: [a_counts] are messages by [Msg.kind];
          words are not gated *)
  w_fingerprint : int * int * int * int * int * int;
      (** small macro arm: (completed, aborted, tx committed, programs
          completed, net sends, NOPs) *)
  w_deterministic : bool;  (** the rerun reproduced counts and fingerprint *)
  w_swept_growth : float;  (** records swept per round, large over small *)
}

val run : opts -> result

val minor_bound : float
(** Largest allowed rise of minor words per op over the baseline: 0.02. *)

val promoted_bound : float
(** Largest allowed rise of promoted words per op: 0.05. *)

val max_swept_growth : float
(** Largest allowed {!result.w_swept_growth}: 1.5. *)

val check : baseline:result -> result -> string list
(** The gate, pure: one message per failure, empty when the run passes.
    It fails when any count per op rises above the baseline's (no rise
    allowed), when words per op rise beyond {!minor_bound} or
    {!promoted_bound}, when the options or the fingerprint differ, when
    the rerun diverged, or when swept-per-round growth exceeds
    {!max_swept_growth}. A count that falls passes. *)

val table : result -> string
(** Per-op counters, words and CPU seconds, one column per arm. *)

val to_json : result -> string list
(** The fields of [BENCH_work.json] that follow its experiment name and
    seed, one rendered ["key": value] per element. *)

val of_json : Weaver_util.Json.t -> result
(** Reads back a document holding {!to_json}'s fields.
    @raise Failure on a missing or malformed field. *)
