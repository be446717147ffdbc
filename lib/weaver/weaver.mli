(** Umbrella module for the Weaver reproduction: re-exports every public
    component under one roof and provides {!boot}, the one-liner that
    creates a cluster with the standard node programs registered.

    {[
      let cluster = Weaver.boot Weaver.Config.default in
      let client = Weaver.Cluster.client cluster in
      ...
    ]} *)

module Config = Weaver_core.Config
module Cluster = Weaver_core.Cluster
module Client = Weaver_core.Client
module Progval = Weaver_core.Progval
module Nodeprog = Weaver_core.Nodeprog
module Backup = Weaver_core.Backup
module Balancer = Weaver_core.Balancer
module Programs = Weaver_programs.Std_programs
module Graphgen = Weaver_workloads.Graphgen
module Loader = Weaver_workloads.Loader
module Tao = Weaver_workloads.Tao
module Blockchain = Weaver_workloads.Blockchain
module Analytics = Weaver_workloads.Analytics
module Socialnet = Weaver_apps.Socialnet
module Coingraph = Weaver_apps.Coingraph
module Robobrain = Weaver_apps.Robobrain
module Vclock = Weaver_vclock.Vclock
module Oracle = Weaver_oracle.Oracle
module Oracle_chain = Weaver_oracle.Chain
module Store = Weaver_store.Store
module Mgraph = Weaver_graph.Mgraph
module Codec = Weaver_graph.Codec
module Partition = Weaver_partition.Partition
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Metrics = Weaver_obs.Metrics
module Trace = Weaver_obs.Trace
module Xrand = Weaver_util.Xrand
module Stats = Weaver_util.Stats

val boot : Config.t -> Cluster.t
(** {!Cluster.create} plus {!Programs.Std.register_all}. *)
