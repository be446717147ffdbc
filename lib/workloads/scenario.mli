(** Building blocks shared by the experiment scenarios ({!Sweepbench},
    {!Contentionbench}, {!Snapshotbench}, {!Rebalancebench},
    {!Replbench}, {!Mixedbench}). The bench and the command line run the
    same scenario, so set-up and drivers live here once. *)

val cluster : Weaver_core.Config.t -> Weaver_core.Cluster.t
(** [Cluster.create] with the standard node programs registered. *)

val install : Weaver_core.Config.t -> Graphgen.t -> Weaver_core.Cluster.t * string array
(** A {!cluster} holding the fast-installed graph, run for 5 ms of
    virtual time; returns the graph's vertex ids. *)

val create_vertices : Weaver_core.Client.t -> string list -> unit
(** Commits one transaction that creates the vertices.
    @raise Failure if the commit fails. *)

val writers :
  Weaver_core.Cluster.t ->
  ?pin:bool ->
  writers:int ->
  seed:(int -> int) ->
  continue:(int -> bool) ->
  pick:(Weaver_util.Xrand.t -> int) ->
  vid:(int -> string) ->
  ?on_commit:(int -> float -> unit) ->
  unit ->
  int ref
(** Starts [writers] closed-loop writers. Writer [i] has its own client,
    pinned to gatekeeper [i mod n_gatekeepers] when [pin], and its own
    RNG seeded [seed i]. While [continue committed] holds, it commits a
    single property write to [vid (pick rng)]. An aborted commit retries
    with a fresh pick. [on_commit key latency] sees each commit. The
    returned counter counts writers that have finished. *)

val drain : Weaver_core.Cluster.t -> int ref -> writers:int -> label:string -> unit
(** Runs the cluster in 1 ms steps until [writers] writers have finished.
    @raise Failure ["<label>: writers stalled"] after 4 s of virtual time. *)
