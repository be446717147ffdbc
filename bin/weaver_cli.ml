(* weaver-cli: poke a simulated Weaver deployment from the command line.

   Subcommands:
     demo        build a small social graph and run sample queries
     tao         run the TAO-mix benchmark with chosen parameters
     coingraph   ingest and query synthetic blocks
     fault       demonstrate failure detection and recovery
     backup      dump a cluster and restore it into a new one
     chaos       availability under rolling crashes, client reliability off vs on
     sweep       coordination cost across announce periods (Fig. 14)
     contention  blocking vs non-blocking refinement under write skew
     overload    open-loop saturation quick-look, flow control off vs on
     snapshot    pinned historical analytics vs live writes, snapshots off vs on
     heat        per-shard hottest vertices and per-range heat map under zipf load
     health      watchdog alerts across a mid-run gatekeeper crash
     rebalance   live heat-driven rebalancing across a hot-spot flip, off vs on
     replication hot-range partial replication: installs, streams, routed reads
     stats       traced mixed run; metrics and per-phase latency breakdown
     trace       span tree of one traced transaction and node program
     timeline    sampled time series under TAO-mix load
     export      Chrome trace-event JSON of the traced mixed run
     slow        slowest requests of the traced mixed run *)

open Cmdliner
open Weaver_core
module Workloads = Weaver_workloads
module Metrics = Weaver_obs.Metrics
module Trace = Weaver_obs.Trace
module Scenario = Workloads.Scenario

(* odd shard counts from the CLI: round the range-heat table up so it
   nests ([Config.validate] rejects non-multiples) *)
let config ~gatekeepers ~shards ~tau ~seed =
  Config.align_heat_ranges
    { Config.default with Config.n_gatekeepers = gatekeepers; n_shards = shards; tau; seed }

(* common options *)
let gatekeepers =
  Arg.(value & opt int 2 & info [ "g"; "gatekeepers" ] ~docv:"N" ~doc:"Gatekeeper servers.")

let shards =
  Arg.(value & opt int 4 & info [ "s"; "shards" ] ~docv:"N" ~doc:"Shard servers.")

let tau =
  Arg.(
    value
    & opt float 1000.0
    & info [ "tau" ] ~docv:"US" ~doc:"Vector-clock announce period in virtual µs.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let demo gatekeepers shards tau seed =
  let c = Scenario.cluster (config ~gatekeepers ~shards ~tau ~seed) in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  let a = Client.Tx.create_vertex tx ~id:"a" () in
  let b = Client.Tx.create_vertex tx ~id:"b" () in
  let z = Client.Tx.create_vertex tx ~id:"z" () in
  ignore (Client.Tx.create_edge tx ~src:a ~dst:b);
  ignore (Client.Tx.create_edge tx ~src:b ~dst:z);
  (match Client.commit client tx with
  | Ok () -> print_endline "committed a -> b -> z"
  | Error e -> failwith e);
  (match
     Client.run_program client ~prog:"hop_distance"
       ~params:(Progval.Assoc [ ("target", Progval.Str z) ])
       ~starts:[ a ] ()
   with
  | Ok v -> Format.printf "hop_distance(a, z) = %a@." Progval.pp v
  | Error e -> failwith e);
  Printf.printf "virtual time: %.0f us\n" (Cluster.now c)

let tao gatekeepers shards tau seed clients duration_ms read_pct =
  let rng = Weaver_util.Xrand.create ~seed () in
  let c, vertices =
    Scenario.install
      (config ~gatekeepers ~shards ~tau ~seed)
      (Workloads.Graphgen.preferential ~rng ~prefix:"u" ~vertices:4_000 ~out_degree:7 ())
  in
  let r =
    Workloads.Tao.Driver.run c ~vertices ~clients
      ~duration:(duration_ms *. 1000.0)
      ~read_fraction:(read_pct /. 100.0)
      ()
  in
  Printf.printf "completed %d ops in %.0f ms of virtual time\n" r.Workloads.Tao.Driver.completed
    (duration_ms);
  Printf.printf "throughput: %.0f ops/s\n" r.Workloads.Tao.Driver.throughput;
  Printf.printf "reads : %s\n" (Weaver_util.Stats.summary r.Workloads.Tao.Driver.read_latencies);
  Printf.printf "writes: %s\n" (Weaver_util.Stats.summary r.Workloads.Tao.Driver.write_latencies);
  let ctr = Cluster.counters c in
  Printf.printf "oracle consults: %d (cache hits %d); announces: %d\n"
    ctr.Runtime.oracle_consults ctr.Runtime.oracle_cache_hits ctr.Runtime.announce_msgs;
  print_newline ();
  print_string (Cluster.report c)

let coingraph gatekeepers shards tau seed height =
  let c = Scenario.cluster (config ~gatekeepers ~shards ~tau ~seed) in
  let cg = Weaver_apps.Coingraph.create c in
  ignore (Weaver_apps.Coingraph.preload_block cg ~height);
  Cluster.run_for c 5_000.0;
  let t0 = Cluster.now c in
  (match Weaver_apps.Coingraph.block_tx_count cg ~height with
  | Ok n ->
      Printf.printf "block %d: %d transactions rendered in %.2f virtual ms\n" height n
        ((Cluster.now c -. t0) /. 1000.0)
  | Error e -> failwith e)

let fault gatekeepers shards tau seed =
  let c = Scenario.cluster (config ~gatekeepers ~shards ~tau ~seed) in
  let client = Cluster.client c in
  Scenario.create_vertices client [ "survivor" ];
  let victim = Cluster.shard_of_vertex c "survivor" in
  Printf.printf "killing shard %d (owns 'survivor')...\n" victim;
  Cluster.kill_shard c victim;
  Cluster.run_for c 400_000.0;
  Printf.printf "cluster epoch now %d; recoveries: %d\n" (Cluster.epoch c)
    (Cluster.counters c).Runtime.recoveries;
  let net = (Cluster.runtime c).Runtime.net in
  Printf.printf "messages dropped while the endpoint was dead: %d\n"
    (Weaver_sim.Net.messages_dropped net);
  List.iter
    (fun (dst, n) -> Printf.printf "  -> %-10s %d\n" (Cluster.actor_of_addr c dst) n)
    (Weaver_sim.Net.drops_by_dst net);
  match
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "survivor" ] ()
  with
  | Ok (Progval.List [ _ ]) -> print_endline "data recovered from backing store; query ok"
  | Ok v -> Format.printf "unexpected: %a@." Progval.pp v
  | Error e -> failwith e

let chaos gatekeepers shards seed clients duration json =
  (* TAO-mix under a rolling crash/restart fault plan, client reliability
     layer off then on — same seed, same plan (see EXPERIMENTS.md) *)
  let base =
    {
      Workloads.Chaosbench.default_opts with
      Workloads.Chaosbench.co_seed = seed;
      co_gatekeepers = gatekeepers;
      co_shards = shards;
      co_clients = clients;
      co_duration = duration *. 1_000.0;
    }
  in
  let off =
    Workloads.Chaosbench.run { base with Workloads.Chaosbench.co_reliable = false }
  in
  let on_ =
    Workloads.Chaosbench.run { base with Workloads.Chaosbench.co_reliable = true }
  in
  if json then
    Printf.printf "{\"experiment\": \"chaos\", \"seed\": %d, \"off\": %s, \"on\": %s}\n"
      seed
      (Workloads.Chaosbench.to_json off)
      (Workloads.Chaosbench.to_json on_)
  else begin
    print_endline (Workloads.Chaosbench.summary "off" off);
    print_endline (Workloads.Chaosbench.summary "on" on_);
    Printf.printf "availability delta: +%.3f\n"
      (on_.Workloads.Chaosbench.r_availability
      -. off.Workloads.Chaosbench.r_availability)
  end

(* Each quick-look below runs the bench's scenario (lib/workloads), at
   smaller options where the bench's would take too long. *)

let sweep seed =
  let module S = Workloads.Sweepbench in
  print_string (S.table (S.run { S.sw_seed = seed }))

let contention seed theta json =
  let module C = Workloads.Contentionbench in
  let arm nonblocking =
    C.run { C.quick_opts with ct_seed = seed; ct_theta = theta; ct_nonblocking = nonblocking }
  in
  let bl = arm false and nb = arm true in
  if json then
    Printf.printf
      "{\"experiment\": \"contention\", \"seed\": %d, \"theta\": %.2f, \"blocking\": %s, \
       \"nonblocking\": %s}\n"
      seed theta (C.to_json bl) (C.to_json nb)
  else print_string (C.table [ (theta, bl, nb) ])

let overload gatekeepers shards seed mult duration_ms json =
  (* one point of the `bench overload` sweep: the same offered load pushed
     through both arms, so the goodput/p99/shed deltas isolate what the
     flow-control subsystem (admission + deadline shedding + credits) buys *)
  let sat =
    Workloads.Overloadbench.saturation_rate ~gatekeepers
      ~gk_op_cost:Config.default.Config.gk_op_cost
  in
  let base =
    {
      Workloads.Overloadbench.default_opts with
      Workloads.Overloadbench.ov_seed = seed;
      ov_gatekeepers = gatekeepers;
      ov_shards = shards;
      ov_rate = sat *. mult;
      ov_duration = duration_ms *. 1_000.0;
    }
  in
  let off =
    Workloads.Overloadbench.run { base with Workloads.Overloadbench.ov_flow = false }
  in
  let on_ =
    Workloads.Overloadbench.run { base with Workloads.Overloadbench.ov_flow = true }
  in
  if json then
    Printf.printf
      "{\"experiment\": \"overload\", \"seed\": %d, \"load_multiplier\": %.2f, \
       \"off\": %s, \"on\": %s}\n"
      seed mult
      (Workloads.Overloadbench.to_json off)
      (Workloads.Overloadbench.to_json on_)
  else begin
    Printf.printf "offered %.0f req/s (%.2fx of ~%.0f req/s saturation)\n"
      base.Workloads.Overloadbench.ov_rate mult sat;
    print_string (Workloads.Overloadbench.table [ (mult, off, on_) ]);
    Printf.printf
      "shed reasons (on): queue %d, deadline %d, credit %d | credit msgs %d\n"
      on_.Workloads.Overloadbench.v_shed_queue
      on_.Workloads.Overloadbench.v_shed_deadline
      on_.Workloads.Overloadbench.v_shed_credit
      on_.Workloads.Overloadbench.v_credit_msgs
  end

let snapshot seed duration_ms json =
  let module S = Workloads.Snapshotbench in
  let arm snapshots =
    S.run { S.sn_seed = seed; sn_snapshots = snapshots; sn_window = duration_ms *. 1_000.0 }
  in
  let off = arm false and on_ = arm true in
  if json then
    Printf.printf "{\"experiment\": \"snapshot\", \"seed\": %d, \"off\": %s, \"on\": %s}\n"
      seed (S.to_json off) (S.to_json on_)
  else print_string (S.table [ ("off", off); ("on", on_) ])

let rebalance seed json =
  let module R = Workloads.Rebalancebench in
  let off = R.run { R.re_seed = seed; re_rebalance = false } in
  let on_ = R.run { R.re_seed = seed; re_rebalance = true } in
  if json then
    Printf.printf "{\"experiment\": \"rebalance\", \"seed\": %d, \"off\": %s, \"on\": %s}\n"
      seed (R.to_json off) (R.to_json on_)
  else begin
    print_endline
      "hot set of 16 vertices on shard 0, flipped to 16 of shard 1's mid-run (8 writers)\n";
    print_string (R.table [ ("off", off); ("on", on_) ]);
    Printf.printf "\nplanner (on): %d rounds; skew 1.0 = balanced\n" on_.R.rb_rounds;
    List.iteri
      (fun i m ->
        if i < 12 then
          Printf.printf "  %7.1f ms  %-12s shard %d -> %d\n"
            (m.Balancer.mv_time /. 1000.0)
            m.Balancer.mv_vid m.Balancer.mv_from m.Balancer.mv_to)
      on_.R.rb_move_log;
    if List.length on_.R.rb_move_log > 12 then
      Printf.printf "  ... %d more moves\n" (List.length on_.R.rb_move_log - 12)
  end

let replication seed readers duration_ms theta factor json =
  let module R = Workloads.Replbench in
  let r =
    R.run
      {
        R.rl_seed = seed;
        rl_factor = factor;
        rl_theta = theta;
        rl_readers = readers;
        rl_duration = duration_ms *. 1_000.0;
      }
  in
  if json then begin
    let rows =
      List.map
        (fun (range, owner, fs, covering) ->
          Printf.sprintf "{\"range\": %d, \"owner\": %d, \"followers\": [%s], \"advertising\": %d}"
            range owner
            (String.concat ", " (List.map string_of_int fs))
            covering)
        r.R.rp_table
    in
    Printf.printf
      "{\"experiment\": \"replication\", \"seed\": %d, \"readers\": %d, \"arm\": %s, \
       \"rounds\": %d, \"resyncs\": %d, \"routed_fraction\": %.3f, \"table\": [%s]}\n"
      seed readers (R.to_json r) r.R.rp_rounds r.R.rp_resyncs r.R.rp_routed_fraction
      (String.concat ", " rows)
  end
  else begin
    Printf.printf "hot-range replication under %d zipf readers\n\n%s\n" readers
      (R.table [ r ]);
    Printf.printf "controller: %d rounds, %d installs; owners streamed %d updates (%d resyncs)\n"
      r.R.rp_rounds r.R.rp_installs r.R.rp_updates r.R.rp_resyncs;
    Printf.printf "gatekeepers routed %d reads to followers (%.1f%% of reads)\n" r.R.rp_routed
      (100.0 *. r.R.rp_routed_fraction);
    if r.R.rp_table <> [] then begin
      Printf.printf "\n%8s %6s %-16s %s\n" "range" "owner" "followers" "advertising";
      List.iter
        (fun (range, owner, fs, covering) ->
          Printf.printf "%8d %6d %-16s %d/%d\n" range owner
            (String.concat "," (List.map string_of_int fs))
            covering (List.length fs))
        r.R.rp_table
    end
  end

let backup_demo gatekeepers shards tau seed =
  let rng = Weaver_util.Xrand.create ~seed () in
  let g = Workloads.Graphgen.uniform ~rng ~prefix:"b" ~vertices:200 ~edges:800 () in
  let c, _ = Scenario.install (config ~gatekeepers ~shards ~tau ~seed) g in
  let image = Backup.dump c in
  Printf.printf "dumped %d vertices into a %d-byte image\n" 200 (String.length image);
  let c2 = Scenario.cluster (config ~gatekeepers ~shards ~tau ~seed:(seed + 1)) in
  Backup.restore c2 image;
  Cluster.run_for c2 5_000.0;
  let client2 = Cluster.client c2 in
  match
    Client.run_program client2 ~prog:"count_edges" ~params:Progval.Null
      ~starts:(Workloads.Graphgen.vertex_ids g) ()
  with
  | Ok (Progval.Int n) -> Printf.printf "restored cluster reports %d edges\n" n
  | _ -> failwith "restore verification failed"

(* [stats], [trace], [export] and [slow] read the bench's traced mixed run *)
let run_mixed ~txs ~progs =
  let module M = Workloads.Mixedbench in
  let r = M.run { M.mx_txs = txs; mx_progs = progs } in
  (r.M.mx_cluster, r.M.mx_tx_traces, r.M.mx_prog_traces)

let stats txs progs json =
  let c, tx_traces, prog_traces = run_mixed ~txs ~progs in
  let m = Cluster.metrics c in
  (* per-request message counts come from the real trace ledgers *)
  let tr = Option.get (Cluster.request_tracer c) in
  List.iter
    (fun id ->
      let n = Trace.message_count tr id in
      if n > 0 then Metrics.observe m "req.messages" (float_of_int n))
    (tx_traces @ prog_traces);
  if json then print_endline (Metrics.to_json m)
  else begin
    Printf.printf "mixed run: %d transactions, %d node programs (2 gks, 4 shards)\n\n" txs
      progs;
    print_string (Metrics.render m);
    print_newline ();
    print_endline "per-phase latency breakdown:";
    print_string (Workloads.Mixedbench.phase_table c);
    let net = (Cluster.runtime c).Runtime.net in
    Printf.printf "\nmessages dropped at dead endpoints: %d\n"
      (Weaver_sim.Net.messages_dropped net);
    List.iter
      (fun (dst, n) ->
        Printf.printf "  -> %-10s %d\n" (Cluster.actor_of_addr c dst) n)
      (Weaver_sim.Net.drops_by_dst net)
  end

(* Timeline: sustained TAO-mix load with registry sampling on; windowed
   rates and utilization, or the full series as JSON/CSV. *)
let timeline_cmd_impl gatekeepers shards tau seed clients duration_ms period_ms json csv =
  let rng = Weaver_util.Xrand.create ~seed () in
  let c, vertices =
    Scenario.install
      {
        (config ~gatekeepers ~shards ~tau ~seed) with
        Config.enable_timeline = true;
        timeline_period = period_ms *. 1000.0;
      }
      (Workloads.Graphgen.uniform ~rng ~prefix:"t" ~vertices:800 ~edges:3_200 ())
  in
  ignore
    (Workloads.Tao.Driver.run c ~vertices ~clients ~duration:(duration_ms *. 1000.0)
       ~read_fraction:0.95 ());
  let tl = Option.get (Cluster.timeline c) in
  if json then print_string (Weaver_obs.Export.timeline_json tl)
  else if csv then print_string (Weaver_obs.Export.timeline_csv tl)
  else begin
    let rate name = Weaver_obs.Timeline.rates tl name in
    let txs = rate "tx.committed"
    and progs = rate "prog.completed"
    and msgs = rate "net.sent"
    and pages = rate "paging.page_ins"
    and gk_busy = rate "util.gk0.busy_us"
    and sh_busy = rate "util.shard0.busy_us" in
    let at series t =
      match List.assoc_opt t series with Some v -> v | None -> 0.0
    in
    Printf.printf "%d samples every %.0f ms over %.0f ms of virtual time\n\n"
      (Weaver_obs.Timeline.length tl) period_ms duration_ms;
    Printf.printf "%10s %10s %10s %10s %10s %8s %8s\n" "time(ms)" "tx/s" "prog/s"
      "msg/s" "pages/s" "gk0busy" "sh0busy";
    List.iter
      (fun (t, tx_rate) ->
        Printf.printf "%10.1f %10.0f %10.0f %10.0f %10.0f %7.1f%% %7.1f%%\n"
          (t /. 1000.0) tx_rate (at progs t) (at msgs t) (at pages t)
          (at gk_busy t /. 10_000.0)
          (at sh_busy t /. 10_000.0))
      txs
  end

(* Export: traced mixed run serialized as Chrome trace-event JSON for
   Perfetto / chrome://tracing. *)
let export_cmd_impl txs progs out =
  let c, tx_traces, prog_traces = run_mixed ~txs ~progs in
  let tr = Option.get (Cluster.request_tracer c) in
  let doc =
    Weaver_obs.Export.chrome_trace tr
      ~traces:(tx_traces @ prog_traces)
      ~actor_of_addr:(Cluster.actor_of_addr c) ()
  in
  match out with
  | "-" -> print_string doc
  | path ->
      let oc = open_out path in
      output_string oc doc;
      close_out oc;
      Printf.printf "wrote %s (%d traces, %d bytes)\n" path
        (List.length tx_traces + List.length prog_traces)
        (String.length doc)

(* Slow: traced mixed run; the top-K slowest requests with per-phase
   breakdowns. *)
let slow_cmd_impl txs progs json =
  let c, _, _ = run_mixed ~txs ~progs in
  let log = Cluster.slow_log c in
  if json then print_endline (Weaver_obs.Slowlog.to_json log)
  else print_string (Weaver_obs.Slowlog.render log)

let trace_cmd_impl () =
  let c, tx_traces, prog_traces = run_mixed ~txs:3 ~progs:1 in
  let tr = Option.get (Cluster.request_tracer c) in
  (match List.rev tx_traces with
  | last :: _ ->
      print_endline "=== transaction ===";
      print_string (Trace.render tr last)
  | [] -> ());
  match prog_traces with
  | p :: _ ->
      print_endline "=== node program ===";
      print_string (Trace.render tr p)
  | [] -> ()

(* Heat: zipf-skewed TAO-mix load with heat attribution on; per-shard
   hottest vertices, the per-range heat map, and the cluster skew ratio. *)
let heat_cmd_impl gatekeepers shards tau seed clients duration_ms theta json csv =
  let rng = Weaver_util.Xrand.create ~seed () in
  let c, vertices =
    Scenario.install
      { (config ~gatekeepers ~shards ~tau ~seed) with Config.enable_heat = true }
      (Workloads.Graphgen.uniform ~rng ~prefix:"h" ~vertices:512 ~edges:2_048 ())
  in
  ignore
    (Workloads.Tao.Driver.run c ~vertices ~clients ~duration:(duration_ms *. 1000.0)
       ~read_fraction:0.9 ~theta ());
  let h = Option.get (Cluster.heat c) in
  let now = Cluster.now c in
  if json then print_endline (Weaver_obs.Export.heat_json h ~now)
  else if csv then print_string (Weaver_obs.Export.heat_csv h ~now)
  else begin
    let module Heat = Weaver_obs.Heat in
    Printf.printf "heat after %.0f ms of TAO-mix at zipf theta=%.2f (skew %.2f)\n\n"
      duration_ms theta (Heat.skew h ~now);
    for s = 0 to Heat.shards h - 1 do
      let reads, writes, cross = Heat.totals h ~shard:s in
      Printf.printf "shard %d: %d reads, %d writes, %d cross-shard touches\n" s reads
        writes cross;
      List.iteri
        (fun i (vid, n, err) ->
          if i < 5 then Printf.printf "  %d. %-12s ~%d touches (err <= %d)\n" (i + 1) vid n err)
        (Heat.top h ~shard:s)
    done;
    (* the hottest ranges cluster-wide, by decayed read+write load *)
    let ranges =
      List.init (Heat.ranges h) (fun r -> (r, Heat.range_rw_load h ~range:r ~now))
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    in
    Printf.printf "\nhottest ranges (decayed load, half-life %.0f ms):\n"
      (Heat.half_life h /. 1000.0);
    List.iteri
      (fun i (r, l) ->
        if i < 8 then
          Printf.printf "  range %2d (home shard %d): %8.1f\n" r (Heat.home_shard h r) l)
      ranges
  end

(* Health: watchdog checks across a mid-run gatekeeper crash. The failure
   detector is suppressed (huge timeout) so the stalled GC watermark stays
   visible to the watchdog instead of being healed by a replacement. *)
let health_cmd_impl gatekeepers shards seed duration_ms json =
  let rng = Weaver_util.Xrand.create ~seed () in
  let c, vertices =
    Scenario.install
      {
        (config ~gatekeepers ~shards ~tau:Config.default.Config.tau ~seed) with
        Config.enable_health = true;
        health_period = 5_000.0;
        failure_timeout = 1.0e9;
      }
      (Workloads.Graphgen.uniform ~rng ~prefix:"w" ~vertices:400 ~edges:1_600 ())
  in
  let crash_at = Cluster.now c +. (duration_ms *. 1000.0 /. 3.0) in
  ignore
    (Cluster.install_fault_plan c
       [ { Weaver_sim.Fault.at = crash_at; action = Weaver_sim.Fault.Crash (Weaver_sim.Fault.Gatekeeper 0) } ]);
  ignore
    (Workloads.Tao.Driver.run c ~vertices ~clients:12
       ~duration:(duration_ms *. 1000.0) ~read_fraction:0.9 ());
  let h = Option.get (Cluster.health c) in
  if json then print_endline (Weaver_obs.Health.to_json h)
  else begin
    Printf.printf "gatekeeper 0 crashed at %.0f ms (failure detector suppressed)\n\n"
      (crash_at /. 1000.0);
    print_string (Weaver_obs.Health.render h)
  end

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Tiny end-to-end demo")
    Term.(const demo $ gatekeepers $ shards $ tau $ seed)

let tao_cmd =
  let clients =
    Arg.(value & opt int 30 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 300.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let read_pct =
    Arg.(value & opt float 99.8 & info [ "r"; "reads" ] ~docv:"PCT" ~doc:"Read percentage.")
  in
  Cmd.v (Cmd.info "tao" ~doc:"TAO-mix benchmark")
    Term.(const tao $ gatekeepers $ shards $ tau $ seed $ clients $ duration $ read_pct)

let coingraph_cmd =
  let height =
    Arg.(value & opt int 200_000 & info [ "height" ] ~docv:"H" ~doc:"Block height.")
  in
  Cmd.v (Cmd.info "coingraph" ~doc:"Blockchain explorer demo")
    Term.(const coingraph $ gatekeepers $ shards $ tau $ seed $ height)

let fault_cmd =
  Cmd.v (Cmd.info "fault" ~doc:"Failure detection and recovery demo")
    Term.(const fault $ gatekeepers $ shards $ tau $ seed)

let chaos_cmd =
  let clients =
    Arg.(value & opt int 8 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 400.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit both runs as JSON.") in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Availability under a rolling crash/restart fault plan, client reliability \
          off vs on")
    Term.(const chaos $ gatekeepers $ shards $ seed $ clients $ duration $ json)

let sweep_cmd =
  Cmd.v (Cmd.info "sweep" ~doc:"Announce-period sweep (the bench's Fig. 14)")
    Term.(const sweep $ seed)

let contention_cmd =
  let quick = Workloads.Contentionbench.quick_opts in
  let seed =
    Arg.(value & opt int quick.ct_seed & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")
  in
  let theta =
    Arg.(value & opt float quick.ct_theta & info [ "theta" ] ~docv:"T" ~doc:"Zipf key skew.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit both arms as JSON.") in
  Cmd.v
    (Cmd.info "contention"
       ~doc:
         "Blocking vs non-blocking, coalesced timestamp refinement under skewed \
          write contention")
    Term.(const contention $ seed $ theta $ json)

let overload_cmd =
  let mult =
    Arg.(
      value & opt float 2.0
      & info [ "m"; "mult" ] ~docv:"X" ~doc:"Offered load as a multiple of saturation.")
  in
  let duration =
    Arg.(
      value & opt float 200.0
      & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Issuance window, virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit both arms as JSON.") in
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Open-loop saturation quick-look: goodput, tail latency, and shed rate \
          with flow control (admission + deadline shedding + credits) off vs on")
    Term.(const overload $ gatekeepers $ shards $ seed $ mult $ duration $ json)

let snapshot_cmd =
  let duration =
    Arg.(
      value & opt float 150.0
      & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Race window, virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit both arms as JSON.") in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Historical analytics vs live writes quick-look: versioned snapshot \
          store (pinned lock-free reads) off vs on")
    Term.(const snapshot $ seed $ duration $ json)

let heat_cmd =
  let clients =
    Arg.(value & opt int 16 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 150.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let theta =
    Arg.(value & opt float 0.9 & info [ "theta" ] ~docv:"T" ~doc:"Zipf vertex skew.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the heat snapshot as JSON.") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit the per-range heat map as CSV.") in
  Cmd.v
    (Cmd.info "heat"
       ~doc:
         "Per-shard hottest vertices (Space-Saving sketch) and per-range decayed \
          heat map under zipf-skewed TAO-mix load")
    Term.(
      const heat_cmd_impl $ gatekeepers $ shards $ tau $ seed $ clients $ duration
      $ theta $ json $ csv)

let health_cmd =
  let duration =
    Arg.(value & opt float 400.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the alert log as JSON.") in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Cluster health watchdog quick-look: alerts fired across a mid-run \
          gatekeeper crash (watermark stall, queue trend, shed/skew/late rates)")
    Term.(const health_cmd_impl $ gatekeepers $ shards $ seed $ duration $ json)

let rebalance_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit both arms, move logs included, as JSON.") in
  Cmd.v
    (Cmd.info "rebalance"
       ~doc:
         "Live heat-driven rebalancing quick-look (par. 4.6): a hot spot on one \
          shard flips to another mid-run; skew and planner moves, balancer off vs on")
    Term.(const rebalance $ seed $ json)

let replication_cmd =
  let readers =
    Arg.(value & opt int 32 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent readers.")
  in
  let duration =
    Arg.(value & opt float 200.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let theta =
    Arg.(
      value & opt float 0.9
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew of the readers.")
  in
  let factor =
    Arg.(
      value & opt int 2
      & info [ "f"; "factor" ] ~docv:"N" ~doc:"Replication factor (0 disables).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit results and the routing table as JSON.") in
  Cmd.v
    (Cmd.info "replication"
       ~doc:
         "Hot-range partial replication quick-look: controller installs, \
          owner update streams, and the fraction of weak reads served by \
          follower copies")
    Term.(const replication $ seed $ readers $ duration $ theta $ factor $ json)

let backup_cmd =
  Cmd.v (Cmd.info "backup" ~doc:"Backup/restore demo")
    Term.(const backup_demo $ gatekeepers $ shards $ tau $ seed)

let stats_cmd =
  let txs =
    Arg.(value & opt int 40 & info [ "txs" ] ~docv:"N" ~doc:"Transactions to issue.")
  in
  let progs =
    Arg.(value & opt int 10 & info [ "progs" ] ~docv:"N" ~doc:"Node programs to issue.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON.") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Mixed run with tracing on; metrics registry and per-phase latency breakdown")
    Term.(const stats $ txs $ progs $ json)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Span tree of one traced transaction and node program")
    Term.(const trace_cmd_impl $ const ())

let timeline_cmd =
  let clients =
    Arg.(value & opt int 20 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 200.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Virtual ms.")
  in
  let period =
    Arg.(value & opt float 10.0 & info [ "p"; "period" ] ~docv:"MS" ~doc:"Sample period, virtual ms.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the full series as JSON.") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit the full series as CSV.") in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Sampled time series (throughput, messages, utilization) under TAO-mix load")
    Term.(
      const timeline_cmd_impl $ gatekeepers $ shards $ tau $ seed $ clients $ duration
      $ period $ json $ csv)

let export_cmd =
  let txs =
    Arg.(value & opt int 20 & info [ "txs" ] ~docv:"N" ~doc:"Transactions to issue.")
  in
  let progs =
    Arg.(value & opt int 5 & info [ "progs" ] ~docv:"N" ~doc:"Node programs to issue.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Chrome trace-event JSON of a traced mixed run (open in Perfetto)")
    Term.(const export_cmd_impl $ txs $ progs $ out)

let slow_cmd =
  let txs =
    Arg.(value & opt int 40 & info [ "txs" ] ~docv:"N" ~doc:"Transactions to issue.")
  in
  let progs =
    Arg.(value & opt int 10 & info [ "progs" ] ~docv:"N" ~doc:"Node programs to issue.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the log as JSON.") in
  Cmd.v
    (Cmd.info "slow"
       ~doc:"Top-K slowest requests of a traced mixed run, with per-phase breakdowns")
    Term.(const slow_cmd_impl $ txs $ progs $ json)

let () =
  let info =
    Cmd.info "weaver-cli" ~version:"1.0.0"
      ~doc:"Drive a simulated Weaver graph database deployment"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            demo_cmd;
            tao_cmd;
            coingraph_cmd;
            fault_cmd;
            chaos_cmd;
            sweep_cmd;
            contention_cmd;
            overload_cmd;
            snapshot_cmd;
            heat_cmd;
            health_cmd;
            rebalance_cmd;
            replication_cmd;
            backup_cmd;
            stats_cmd;
            trace_cmd;
            timeline_cmd;
            export_cmd;
            slow_cmd;
          ]))
