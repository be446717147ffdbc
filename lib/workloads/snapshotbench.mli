(** Historical analytics against live writes, with the versioned snapshot
    store ([Config.snapshot_reads]) off or on.

    600 vertices sit on 4 capacity-limited shards (120 resident each), so
    the off arm pays demand paging for cold historical lookups and holds
    each program at the ordering gate behind live writes. The on arm pins
    a published immutable snapshot, skips the gate and reads at no
    per-vertex cost. Four writers keep updating properties across the
    whole key range. One analyst repeats a 64-start [get_node] read at a
    captured cut; a ["snapshot-gced"] reply makes it re-capture the cut,
    as a real analytics driver would. Deterministic in [sn_seed]. *)

type opts = {
  sn_seed : int;
  sn_snapshots : bool;  (** [Config.snapshot_reads] *)
  sn_window : float;  (** race window, virtual µs *)
}

val default_opts : opts
(** seed 11, snapshots on, 400 ms window. *)

type result = {
  sr_writes : int;  (** committed writes *)
  sr_reads : int;  (** completed analytics reads *)
  sr_gced : int;  (** cut re-captures forced by the compaction watermark *)
  sr_p50_read : float;  (** analytics read latency, µs *)
  sr_p99_read : float;
  sr_published : int;  (** snapshots published *)
  sr_pinned : int;  (** reads served from a pinned snapshot *)
  sr_deferred : int;  (** compactions deferred by a pinned snapshot *)
  sr_fingerprint : int * int * int * int * int * int;
      (** (writes, reads, tx committed, published, pinned, net sends) *)
}

val run : opts -> result

val table : (string * result) list -> string
(** Column header, then one row per labelled arm. *)

val to_json : result -> string
(** One arm as a JSON object, byte-identical across equal runs. *)
