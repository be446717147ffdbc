(** Read scale-out from timestamp-consistent partial replication of hot
    key ranges ([Config.enable_replication]).

    A 64-vertex, 128-edge uniform graph sits on 4 gatekeepers and 4
    shards, with 40 µs per vertex read so that reads are the scarce
    resource. A pool of Zipf-skewed weak readers ({!Readscale}) saturates
    the hot ranges' owners while one uniform writer per six readers keeps
    every owner's update stream busy. Raising the replication factor
    should spread those reads over follower copies without slowing
    writes. The first fifth of the run is warm-up. Deterministic in
    [rl_seed]. *)

type opts = {
  rl_seed : int;
  rl_factor : int;  (** replication factor; 0 disables replication *)
  rl_theta : float;  (** Zipf skew of the readers *)
  rl_readers : int;
  rl_duration : float;  (** virtual µs, warm-up included *)
}

val default_opts : opts
(** seed 29, factor 3, θ = 0.9, 48 readers, 250 ms. *)

type result = {
  rp_factor : int;
  rp_theta : float;
  rp_goodput : float;  (** completed weak reads per second after warm-up *)
  rp_reads_err : int;
  rp_writes : float;  (** committed writes per second after warm-up *)
  rp_read_p50 : float;  (** µs *)
  rp_read_p99 : float;
  rp_rounds : int;  (** controller rounds *)
  rp_installs : int;  (** follower installs *)
  rp_routed : int;  (** reads the gatekeepers routed to followers *)
  rp_routed_fraction : float;  (** routed over all completed programs *)
  rp_updates : int;  (** updates the owners streamed *)
  rp_resyncs : int;
  rp_table : (int * int * int list * int) list;
      (** gatekeeper 0's routing table: (range, owner, followers, followers
          advertising coverage) *)
  rp_fingerprint : (int * int * int * int) * (int * int * int);
      (** ((committed, aborted, programs, vertices read), (net sends,
          oracle consults, NOPs)) *)
}

val run : opts -> result

val table : result list -> string
(** Column header, then one row per arm. *)

val to_json : result -> string
(** One arm as a JSON object, byte-identical across equal runs. *)
