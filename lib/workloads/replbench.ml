open Weaver_core
module Stats = Weaver_util.Stats
module Repl = Weaver_repl.Repl

type opts = {
  rl_seed : int;
  rl_factor : int;
  rl_theta : float;
  rl_readers : int;
  rl_duration : float;
}

let default_opts =
  { rl_seed = 29; rl_factor = 3; rl_theta = 0.9; rl_readers = 48; rl_duration = 250_000.0 }

type result = {
  rp_factor : int;
  rp_theta : float;
  rp_goodput : float;
  rp_reads_err : int;
  rp_writes : float;
  rp_read_p50 : float;
  rp_read_p99 : float;
  rp_rounds : int;
  rp_installs : int;
  rp_routed : int;
  rp_routed_fraction : float;
  rp_updates : int;
  rp_resyncs : int;
  rp_table : (int * int * int list * int) list;
  rp_fingerprint : (int * int * int * int) * (int * int * int);
}

let config ~factor ~seed =
  {
    Config.default with
    Config.seed;
    n_gatekeepers = 4;
    n_shards = 4;
    enable_heat = true;
    enable_replication = factor > 0;
    replication_factor = factor;
    gc_period = 2_000.0;
    (* reads must be the scarce resource for scale-out to show: with the
       default 1 µs read the gatekeeper plane and the wire dominate and
       every arm measures the same thing *)
    vertex_read_cost = 40.0;
  }

(* gatekeeper 0's copy: it carries the follower watermarks heard in
   [Repl_cover] advertisements, which the controller's own table does not *)
let routing_table c =
  let t = Cluster.gk_repl_table c 0 in
  List.map
    (fun range ->
      let followers = Repl.Table.followers t ~range in
      ( range,
        Option.value ~default:(-1) (Repl.Table.owner t ~range),
        List.map fst followers,
        List.length (List.filter (fun (_, wm) -> wm <> None) followers) ))
    (Repl.Table.ranges t)

let run opts =
  let seed = opts.rl_seed and factor = opts.rl_factor in
  let rng = Weaver_util.Xrand.create ~seed:(seed * 31) () in
  let c, vertices =
    Scenario.install (config ~factor ~seed) (Graphgen.uniform ~rng ~vertices:64 ~edges:128 ())
  in
  let r =
    Readscale.run c ~vertices ~readers:opts.rl_readers
      ~writers:(max 1 (opts.rl_readers / 6))
      ~duration:opts.rl_duration ~theta:opts.rl_theta
      ~warmup:(opts.rl_duration /. 5.0) ()
  in
  let ctr = Cluster.counters c in
  {
    rp_factor = factor;
    rp_theta = opts.rl_theta;
    rp_goodput = r.Readscale.read_goodput;
    rp_reads_err = r.Readscale.reads_err;
    rp_writes = r.Readscale.write_throughput;
    rp_read_p50 = Stats.percentile r.Readscale.read_latencies 50.0;
    rp_read_p99 = Stats.percentile r.Readscale.read_latencies 99.0;
    rp_rounds = ctr.Runtime.repl_rounds;
    rp_installs = ctr.Runtime.repl_installs;
    rp_routed = ctr.Runtime.repl_routed;
    (* both counters span the whole run, warm-up included *)
    rp_routed_fraction =
      float_of_int ctr.Runtime.repl_routed /. float_of_int (max 1 ctr.Runtime.progs_completed);
    rp_updates = ctr.Runtime.repl_updates;
    rp_resyncs = ctr.Runtime.repl_resyncs;
    rp_table = (if factor = 0 then [] else routing_table c);
    rp_fingerprint =
      ( ( ctr.Runtime.tx_committed,
          ctr.Runtime.tx_aborted,
          ctr.Runtime.progs_completed,
          ctr.Runtime.vertices_read ),
        ( Weaver_sim.Net.messages_sent (Cluster.runtime c).Runtime.net,
          ctr.Runtime.oracle_consults,
          ctr.Runtime.nop_msgs ) );
  }

let table arms =
  String.concat ""
    (Printf.sprintf "%-6s %-7s %9s %9s %9s %9s %9s %8s %8s\n" "theta" "factor" "reads/s"
       "writes/s" "p50us" "p99us" "errs" "installs" "routed"
    :: List.map
         (fun r ->
           Printf.sprintf "%-6.1f %-7d %9.0f %9.0f %9.0f %9.0f %9d %8d %8d\n" r.rp_theta
             r.rp_factor r.rp_goodput r.rp_writes r.rp_read_p50 r.rp_read_p99 r.rp_reads_err
             r.rp_installs r.rp_routed)
         arms)

let to_json r =
  Printf.sprintf
    "{\"theta\": %.1f, \"factor\": %d, \"read_goodput_per_s\": %.0f, \
     \"write_throughput_per_s\": %.0f, \"read_p50_us\": %.0f, \"read_p99_us\": %.0f, \
     \"read_errors\": %d, \"installs\": %d, \"routed\": %d, \"updates\": %d}"
    r.rp_theta r.rp_factor r.rp_goodput r.rp_writes r.rp_read_p50 r.rp_read_p99
    r.rp_reads_err r.rp_installs r.rp_routed r.rp_updates
