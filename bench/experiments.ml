(* Reproduction of every table and figure in the paper's evaluation (§6),
   plus the ablations DESIGN.md calls out. Each experiment prints the same
   rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured.

   All "time" below is virtual simulation time; see DESIGN.md for why the
   shapes (not the absolute numbers) are the reproduction target. *)

open Weaver_core
open Weaver_workloads
open Weaver_baselines
module Xrand = Weaver_util.Xrand
module Stats = Weaver_util.Stats
module Partition = Weaver_partition.Partition

let line fmt = Printf.printf (fmt ^^ "\n%!")
let header title = line "\n==== %s ====" title

(* Every experiment's tracked result: BENCH_<name>.json in the working
   directory. It holds the experiment's name, its seed when given, then
   [fields], each one line of rendered "key": value members. *)
let write_bench ?seed name fields =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let head =
    Printf.sprintf "\"experiment\": %S" name
    :: (match seed with Some s -> [ Printf.sprintf "\"seed\": %d" s ] | None -> [])
  in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc "{\n  %s\n}\n" (String.concat ",\n  " (head @ fields)));
  line "wrote %s" file

(* items of a JSON array or object nested one level in a BENCH file, one
   per line *)
let indented items = String.concat "," (List.map (( ^ ) "\n    ") items) ^ "\n  "

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

(* run one node program and return its latency measured at the callback
   (not quantized by the sync driver's polling window) *)
let timed_program cluster client ~prog ~params ~starts =
  let t0 = Cluster.now cluster in
  let result = ref None in
  Client.run_program_async client ~prog ~params ~starts
    ~on_result:(fun r -> result := Some (Cluster.now cluster -. t0, r))
    ();
  let budget = ref 200_000 in
  while Option.is_none !result && !budget > 0 do
    decr budget;
    Cluster.run_for cluster 1_000.0
  done;
  match !result with
  | Some (lat, Ok v) -> (lat, v)
  | Some (_, Error e) -> failwith ("timed_program: " ^ e)
  | None -> failwith "timed_program: stalled" 

(* ------------------------------------------------------------------ *)
(* Table 1: the TAO operation mix our generator produces vs the paper.  *)

let table1 () =
  header "Table 1: TAO workload mix (generated vs paper)";
  let rng = Xrand.create ~seed:1 () in
  let vertices = Array.init 1000 (fun i -> "v" ^ string_of_int i) in
  let n = 500_000 in
  let ops = List.init n (fun _ -> Tao.gen_op ~rng ~vertices ()) in
  let counts = Tao.mix_counts ops in
  let paper =
    [
      ("get_edges", 59.4 *. 0.998);
      ("count_edges", 11.7 *. 0.998);
      ("get_node", 28.9 *. 0.998);
      ("create_edge", 80.0 *. 0.2 /. 100.0);
      ("delete_edge", 20.0 *. 0.2 /. 100.0);
    ]
  in
  line "%-14s %10s %10s" "operation" "generated%" "paper%";
  List.iter
    (fun (name, paper_pct) ->
      let got =
        100.0
        *. float_of_int (Option.value ~default:0 (List.assoc_opt name counts))
        /. float_of_int n
      in
      line "%-14s %10.3f %10.3f" name got paper_pct)
    paper

(* ------------------------------------------------------------------ *)
(* Fig. 7: Bitcoin block query latency vs block height,
   CoinGraph vs the Blockchain.info cost model.                        *)

let fig7_heights = [ 1_000; 50_000; 100_000; 150_000; 200_000; 250_000; 300_000; 350_000 ]

(* CoinGraph's deployment reads transactions through demand paging from the
   disk-backed store (par. 6.1), measured by the paper at 0.6-0.8 ms per
   Bitcoin transaction; we calibrate the per-vertex read cost to that. *)
let coingraph_vertex_cost = 2_600.0

let fig7 () =
  header "Fig 7: Bitcoin block query latency (s)";
  let cfg =
    {
      Config.default with
      Config.n_shards = 8;
      Config.seed = 7;
      Config.vertex_read_cost = coingraph_vertex_cost;
    }
  in
  let c = Scenario.cluster cfg in
  let app = Weaver_apps.Coingraph.create c in
  List.iter (fun h -> ignore (Weaver_apps.Coingraph.preload_block app ~height:h)) fig7_heights;
  Cluster.run_for c 10_000.0;
  let rng = Xrand.create ~seed:77 () in
  line "%-10s %8s %14s %14s %16s" "block" "n_tx" "coingraph(s)" "bc.info(s)" "coingraph ms/tx";
  List.iter
    (fun h ->
      let n_tx = Blockchain.txs_in_block h in
      let lat = Stats.create () in
      for _ = 1 to 20 do
        let t0 = Cluster.now c in
        ignore (ok_exn "block_query" (Weaver_apps.Coingraph.block_query app ~height:h));
        Stats.add lat (Cluster.now c -. t0)
      done;
      let cg = Stats.mean lat /. 1e6 in
      let bc = Blockchain_info.block_query_latency ~rng ~n_tx () /. 1e6 in
      line "%-10d %8d %14.4f %14.4f %16.4f" h n_tx cg bc (Stats.mean lat /. float_of_int n_tx /. 1000.0))
    fig7_heights

(* ------------------------------------------------------------------ *)
(* Fig. 8: throughput of block render queries and vertex read rate.    *)

let fig8 () =
  header "Fig 8: CoinGraph block render throughput";
  line "%-10s %8s %12s %14s" "block" "n_tx" "queries/s" "vertices/s";
  List.iter
    (fun h ->
      let cfg =
        {
          Config.default with
          Config.n_shards = 16;
          Config.seed = 8;
          Config.vertex_read_cost = coingraph_vertex_cost;
        }
      in
      let c = Scenario.cluster cfg in
      let app = Weaver_apps.Coingraph.create c in
      ignore (Weaver_apps.Coingraph.preload_block app ~height:h);
      Cluster.run_for c 10_000.0;
      let completed = ref 0 in
      let clients = 16 in
      for _ = 1 to clients do
        let client = Cluster.client c in
        let rec loop () =
          Client.run_program_async client ~prog:"block_render" ~params:Progval.Null
            ~starts:[ Blockchain.block_vid h ]
            ~on_result:(fun _ ->
              incr completed;
              loop ())
            ()
        in
        loop ()
      done;
      let v0 = (Cluster.counters c).Runtime.vertices_read in
      let duration = 1_000_000.0 in
      Cluster.run_for c duration;
      let dv = (Cluster.counters c).Runtime.vertices_read - v0 in
      let secs = duration /. 1e6 in
      line "%-10d %8d %12.1f %14.0f" h (Blockchain.txs_in_block h)
        (float_of_int !completed /. secs)
        (float_of_int dv /. secs))
    [ 1_000; 100_000; 200_000; 300_000; 350_000 ]

(* ------------------------------------------------------------------ *)
(* Fig. 9 / Fig. 10: social-network throughput and latency CDFs,
   Weaver vs the Titan-like 2PL+2PC baseline.                          *)

let social_graph seed =
  let rng = Xrand.create ~seed () in
  Graphgen.preferential ~rng ~prefix:"u" ~vertices:8_000 ~out_degree:7 ()

(* Warp commits on the paper's spinning-disk testbed dominate write
   latency (Fig. 10 shows writes an order of magnitude slower than reads);
   calibrate the per-key store cost so one small write transaction costs
   a paper-like ~15 ms. *)
let social_store_op_cost = 5_000.0

let run_weaver_social ~read_fraction ~clients ~seed =
  let cfg =
    {
      Config.default with
      Config.n_shards = 8;
      Config.seed;
      Config.store_op_cost = social_store_op_cost;
    }
  in
  let c, vertices = Scenario.install cfg (social_graph seed) in
  ( Tao.Driver.run c ~vertices ~clients ~duration:400_000.0 ~read_fraction
      ~warmup:50_000.0 (),
    c )

let titan_social ~read_fraction ~clients ~seed =
  let engine = Weaver_sim.Engine.create ~seed () in
  let t =
    Titan_like.create engine ~rtt:(2.0 *. Config.default.Config.net_base_latency)
  in
  let g = social_graph seed in
  let vertices = Array.of_list (Graphgen.vertex_ids g) in
  Titan_like.Driver.run t ~vertices ~clients ~duration:400_000.0 ~read_fraction ()

let fig9 () =
  header "Fig 9a: throughput, TAO mix (99.8% reads)";
  let weaver, _ = run_weaver_social ~read_fraction:0.998 ~clients:60 ~seed:9 in
  let titan = titan_social ~read_fraction:0.998 ~clients:60 ~seed:9 in
  line "%-8s %12s" "system" "tx/s";
  line "%-8s %12.0f" "weaver" weaver.Tao.Driver.throughput;
  line "%-8s %12.0f" "titan" titan.Titan_like.Driver.throughput;
  line "speedup: %.1fx (paper: 10.9x)"
    (weaver.Tao.Driver.throughput /. titan.Titan_like.Driver.throughput);
  header "Fig 9b: throughput, 75% read workload";
  let weaver75, _ = run_weaver_social ~read_fraction:0.75 ~clients:50 ~seed:19 in
  let titan75 = titan_social ~read_fraction:0.75 ~clients:45 ~seed:19 in
  line "%-8s %12s" "system" "tx/s";
  line "%-8s %12.0f" "weaver" weaver75.Tao.Driver.throughput;
  line "%-8s %12.0f" "titan" titan75.Titan_like.Driver.throughput;
  line "speedup: %.1fx (paper: 1.5x)"
    (weaver75.Tao.Driver.throughput /. titan75.Titan_like.Driver.throughput)

let print_cdf name stats =
  let cdf = Stats.cdf stats ~points:10 in
  line "%s (n=%d):" name (Stats.count stats);
  List.iter (fun (v, f) -> line "  p%-3.0f %10.3f ms" (f *. 100.0) (v /. 1000.0)) cdf

let fig10 () =
  header "Fig 10: transaction latency CDFs, social network workload";
  let weaver_hi, _ = run_weaver_social ~read_fraction:0.998 ~clients:60 ~seed:10 in
  let weaver_lo, _ = run_weaver_social ~read_fraction:0.75 ~clients:50 ~seed:10 in
  let titan_hi = titan_social ~read_fraction:0.998 ~clients:60 ~seed:10 in
  let titan_lo = titan_social ~read_fraction:0.75 ~clients:45 ~seed:10 in
  print_cdf "weaver 99.8% reads (reads)" weaver_hi.Tao.Driver.read_latencies;
  print_cdf "weaver 75% reads (reads)" weaver_lo.Tao.Driver.read_latencies;
  print_cdf "weaver 75% reads (writes)" weaver_lo.Tao.Driver.write_latencies;
  print_cdf "titan 99.8% reads (reads)" titan_hi.Titan_like.Driver.read_latencies;
  print_cdf "titan 75% reads (reads)" titan_lo.Titan_like.Driver.read_latencies

(* ------------------------------------------------------------------ *)
(* Fig. 11: traversal latency CDF vs GraphLab-like engines.            *)

let fig11 () =
  header "Fig 11: reachability latency CDF, small Twitter-like graph";
  let rng = Xrand.create ~seed:11 () in
  (* heavy-tailed like the paper's ego-Twitter crawl, so the work per query
     varies greatly across requests (the spread in Fig. 11) *)
  let g = Graphgen.rmat ~rng ~prefix:"t" ~vertices:4_096 ~edges:84_000 () in
  let cfg = { Config.default with Config.n_shards = 8; Config.seed = 11 } in
  let c, _ = Scenario.install cfg g in
  let client = Cluster.client c in
  let gl = Graphlab_like.load g in
  let costs = Graphlab_like.default_costs in
  let weaver = Stats.create ()
  and gl_sync = Stats.create ()
  and gl_async = Stats.create () in
  let pair_rng = Xrand.create ~seed:111 () in
  for _ = 1 to 40 do
    let src = Graphgen.vid g (Xrand.int pair_rng g.Graphgen.n_vertices) in
    let dst = Graphgen.vid g (Xrand.int pair_rng g.Graphgen.n_vertices) in
    (* Weaver: sequential single client, as in the paper (§6.3) *)
    let lat, _ =
      timed_program c client ~prog:"reachable"
        ~params:(Progval.Assoc [ ("target", Progval.Str dst) ])
        ~starts:[ src ]
    in
    Stats.add weaver lat;
    Stats.add gl_sync
      (Graphlab_like.reachability_latency gl ~mode:Graphlab_like.Sync ~costs ~src ~dst);
    Stats.add gl_async
      (Graphlab_like.reachability_latency gl ~mode:Graphlab_like.Async ~costs ~src ~dst)
  done;
  print_cdf "weaver" weaver;
  print_cdf "graphlab async" gl_async;
  print_cdf "graphlab sync" gl_sync;
  line "mean latency: weaver %.1f ms | async %.1f ms (%.1fx) | sync %.1f ms (%.1fx)"
    (Stats.mean weaver /. 1e3)
    (Stats.mean gl_async /. 1e3)
    (Stats.mean gl_async /. Stats.mean weaver)
    (Stats.mean gl_sync /. 1e3)
    (Stats.mean gl_sync /. Stats.mean weaver);
  line "(paper: async 4.3x, sync 9.4x slower than Weaver)"

(* ------------------------------------------------------------------ *)
(* Fig. 12: get_node throughput scaling with gatekeepers.              *)

let fig12 () =
  header "Fig 12: get_node throughput vs gatekeepers";
  line "%-14s %12s" "gatekeepers" "tx/s";
  List.iter
    (fun n_gk ->
      let cfg =
        { Config.default with Config.n_gatekeepers = n_gk; Config.n_shards = 4; Config.seed = 12 }
      in
      let rng = Xrand.create ~seed:12 () in
      let c, vertices =
        Scenario.install cfg (Graphgen.rmat ~rng ~prefix:"w" ~vertices:4_000 ~edges:40_000 ())
      in
      let completed = ref 0 in
      let clients = 60 * n_gk in
      for _ = 1 to clients do
        let client = Cluster.client c in
        let vrng = Xrand.split (Weaver_sim.Engine.rng (Cluster.runtime c).Runtime.engine) in
        let rec loop () =
          let v = vertices.(Xrand.int vrng (Array.length vertices)) in
          Client.run_program_async client ~prog:"get_node" ~params:Progval.Null
            ~starts:[ v ]
            ~on_result:(fun _ ->
              incr completed;
              loop ())
            ()
        in
        loop ()
      done;
      let duration = 200_000.0 in
      Cluster.run_for c duration;
      line "%-14d %12.0f" n_gk (float_of_int !completed /. (duration /. 1e6)))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Fig. 13: clustering-coefficient throughput scaling with shards.     *)

let fig13 () =
  header "Fig 13: local clustering coefficient throughput vs shards";
  line "%-10s %12s" "shards" "tx/s";
  List.iter
    (fun n_shards ->
      (* heavier per-vertex work makes the shards the bottleneck (the
         paper's clustering query does real work per neighbour) *)
      let cfg =
        {
          Config.default with
          Config.n_gatekeepers = 2;
          Config.n_shards = n_shards;
          Config.seed = 13;
          Config.vertex_read_cost = 50.0;
        }
      in
      let rng = Xrand.create ~seed:13 () in
      let c, vertices =
        Scenario.install cfg (Graphgen.uniform ~rng ~prefix:"t" ~vertices:2_000 ~edges:42_000 ())
      in
      let completed = ref 0 in
      for _ = 1 to 100 do
        let client = Cluster.client c in
        let vrng = Xrand.split (Weaver_sim.Engine.rng (Cluster.runtime c).Runtime.engine) in
        let rec loop () =
          let v = vertices.(Xrand.int vrng (Array.length vertices)) in
          Client.run_program_async client ~prog:"clustering" ~params:Progval.Null
            ~starts:[ v ]
            ~on_result:(fun _ ->
              incr completed;
              loop ())
            ()
        in
        loop ()
      done;
      let duration = 200_000.0 in
      Cluster.run_for c duration;
      line "%-10d %12.0f" n_shards (float_of_int !completed /. (duration /. 1e6)))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

(* ------------------------------------------------------------------ *)
(* Fig. 14: proactive vs reactive coordination cost as τ varies.       *)

let fig14 () =
  header "Fig 14: coordination overhead vs timestamp announce period";
  print_string (Sweepbench.table (Sweepbench.run Sweepbench.default_opts))

(* ------------------------------------------------------------------ *)
(* Ablations (ours; DESIGN.md A1-A3).                                  *)

let ablation_cache () =
  header "Ablation A1: node-program memoization (par. 4.6)";
  let run memo =
    let cfg =
      { Config.default with Config.enable_memoization = memo; Config.n_gatekeepers = 1; Config.seed = 21 }
    in
    let rng = Xrand.create ~seed:21 () in
    let g = Graphgen.uniform ~rng ~prefix:"m" ~vertices:500 ~edges:4_000 () in
    let c, _ = Scenario.install cfg g in
    let client = Cluster.client c in
    let lat = Stats.create () in
    (* hot query set with occasional invalidating writes *)
    for i = 0 to 199 do
      let v = Graphgen.vid g (i mod 10) in
      let lat_i, _ = timed_program c client ~prog:"get_node" ~params:Progval.Null ~starts:[ v ] in
      Stats.add lat lat_i;
      if i mod 50 = 49 then begin
        let tx = Client.Tx.begin_ client in
        Client.Tx.set_vertex_prop tx ~vid:(Graphgen.vid g 0) ~key:"x" ~value:(string_of_int i);
        ignore (Client.commit client tx)
      end
    done;
    (lat, Cluster.counters c)
  in
  let off, _ = run false in
  let on_, ctr = run true in
  line "memoization off: mean %.0f us" (Stats.mean off);
  line "memoization on : mean %.0f us (hits %d, invalidations %d)" (Stats.mean on_)
    ctr.Runtime.memo_hits ctr.Runtime.memo_invalidations;
  line "speedup: %.1fx" (Stats.mean off /. Stats.mean on_)

let ablation_truetime () =
  header "Ablation A2: TrueTime-style first stage vs vector clocks (par. 3.5)";
  (* measure Weaver's actual commit latency, then show what a TrueTime
     first stage would add: a commit-wait of 2*eps per transaction *)
  let cfg = { Config.default with Config.seed = 22 } in
  let c = Scenario.cluster cfg in
  let client = Cluster.client c in
  Scenario.create_vertices client [ "tt" ];
  let lat = Stats.create () in
  for i = 0 to 49 do
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:"tt" ~key:"v" ~value:(string_of_int i);
    let t0 = Cluster.now c in
    ignore (Client.commit client tx);
    Stats.add lat (Cluster.now c -. t0)
  done;
  let base = Stats.mean lat in
  line "%-16s %16s %12s" "eps (us)" "commit lat (us)" "overhead";
  line "%-16s %16.0f %12s" "vclock (ours)" base "1.0x";
  List.iter
    (fun eps ->
      let tt = base +. (2.0 *. eps) in
      line "%-16.0f %16.0f %11.1fx" eps tt (tt /. base))
    [ 100.0; 500.0; 1_000.0; 5_000.0; 10_000.0 ]

let ablation_partition () =
  header "Ablation A3: partition quality and cross-shard traffic (par. 4.6)";
  let rng = Xrand.create ~seed:23 () in
  let g = Graphgen.preferential ~rng ~prefix:"p" ~vertices:2_000 ~out_degree:6 () in
  let adjacency = Graphgen.adjacency g in
  let shards = 8 in
  let hash_assign : Partition.assignment = Hashtbl.create 2048 in
  List.iter
    (fun (v, _) -> Hashtbl.replace hash_assign v (Partition.hash_vertex ~shards v))
    adjacency;
  let schemes =
    [
      ("hash", hash_assign);
      ("ldg", Partition.ldg ~shards adjacency);
      ("restream5", Partition.restream ~shards ~rounds:5 adjacency);
    ]
  in
  line "%-12s %10s %10s %22s" "scheme" "edge-cut" "balance" "prog msgs / query";
  List.iter
    (fun (name, assign) ->
      let cfg = { Config.default with Config.n_shards = shards; Config.seed = 23 } in
      let c = Scenario.cluster cfg in
      Loader.fast_install_with_assignment c assign g;
      Cluster.run_for c 5_000.0;
      let client = Cluster.client c in
      let m0 = (Cluster.counters c).Runtime.prog_batch_msgs in
      let qrng = Xrand.create ~seed:231 () in
      let queries = 30 in
      for _ = 1 to queries do
        let src = Graphgen.vid g (Xrand.int qrng g.Graphgen.n_vertices) in
        ignore
          (ok_exn "nhop"
             (Client.run_program client ~prog:"nhop_count"
                ~params:(Progval.Assoc [ ("depth", Progval.Int 2) ])
                ~starts:[ src ] ()))
      done;
      let msgs = (Cluster.counters c).Runtime.prog_batch_msgs - m0 in
      line "%-12s %10.3f %10.3f %22.1f" name
        (Partition.edge_cut assign adjacency)
        (Partition.balance assign ~shards)
        (float_of_int msgs /. float_of_int queries))
    schemes;
  (* live rebalancing (§4.6): start from hash placement and migrate vertices
     while the cluster is running, then measure again *)
  let cfg = { Config.default with Config.n_shards = shards; Config.seed = 23 } in
  let c = Scenario.cluster cfg in
  Loader.fast_install_with_assignment c hash_assign g;
  Cluster.run_for c 5_000.0;
  let client = Cluster.client c in
  let run_queries () =
    let m0 = (Cluster.counters c).Runtime.prog_batch_msgs in
    let qrng = Xrand.create ~seed:232 () in
    for _ = 1 to 30 do
      let src = Graphgen.vid g (Xrand.int qrng g.Graphgen.n_vertices) in
      ignore
        (ok_exn "nhop"
           (Client.run_program client ~prog:"nhop_count"
              ~params:(Progval.Assoc [ ("depth", Progval.Int 2) ])
              ~starts:[ src ] ()))
    done;
    float_of_int ((Cluster.counters c).Runtime.prog_batch_msgs - m0) /. 30.0
  in
  let before_msgs = run_queries () in
  let b = Balancer.create (Cluster.runtime c) in
  Balancer.colocate b ~max_moves:2_000;
  while Balancer.pending_moves b > 0 do
    Cluster.run_for c 1_000.0
  done;
  let after_msgs = run_queries () in
  let placement : Partition.assignment = Hashtbl.create 2048 in
  List.iter (fun (v, _) -> Hashtbl.replace placement v (Cluster.shard_of_vertex c v)) adjacency;
  let cut_before = Partition.edge_cut hash_assign adjacency in
  let cut_after = Partition.edge_cut placement adjacency in
  line "live rebalance: %d moves, edge-cut %.3f -> %.3f, prog msgs/query %.1f -> %.1f"
    (Cluster.counters c).Runtime.rebal_moves cut_before cut_after before_msgs after_msgs;
  if cut_after >= cut_before || after_msgs >= before_msgs then
    failwith "A3: live colocation did not lower both edge-cut and prog msgs/query"

let ablation_nop () =
  header "Ablation A4: NOP period bounds node-program delay (par. 4.2)";
  (* single gatekeeper isolates the NOP effect: a program may run as soon
     as the next NOP (or transaction) proves no earlier work is pending,
     so read latency tracks the NOP period *)
  line "%-16s %18s" "nop period (us)" "get_node p50 (us)";
  List.iter
    (fun nop_period ->
      let cfg =
        {
          Config.default with
          Config.n_gatekeepers = 1;
          Config.n_shards = 2;
          Config.nop_period;
          Config.seed = 24;
        }
      in
      let rng = Xrand.create ~seed:24 () in
      let g = Graphgen.uniform ~rng ~prefix:"n" ~vertices:200 ~edges:1_000 () in
      let c, _ = Scenario.install cfg g in
      let client = Cluster.client c in
      let lat = Stats.create () in
      for i = 0 to 99 do
        let v = Graphgen.vid g (i mod 200) in
        let l, _ = timed_program c client ~prog:"get_node" ~params:Progval.Null ~starts:[ v ] in
        Stats.add lat l
      done;
      line "%-16.0f %18.0f" nop_period (Stats.percentile lat 50.0))
    [ 10.0; 50.0; 100.0; 500.0; 1_000.0 ]

let ablation_replicas () =
  header "Ablation A5: read-only shard replicas (par. 6.4)";
  (* shard-bound fan-out reads: replicas take weak-consistency traffic off
     the primaries, each adding about one primary's read capacity *)
  let run ~replicas ~consistency =
    let cfg =
      {
        Config.default with
        Config.n_shards = 4;
        Config.read_replicas = replicas;
        Config.vertex_read_cost = 50.0;
        Config.seed = 25;
      }
    in
    let rng = Xrand.create ~seed:25 () in
    let c, vertices =
      Scenario.install cfg (Graphgen.uniform ~rng ~prefix:"r" ~vertices:1_000 ~edges:20_000 ())
    in
    let completed = ref 0 in
    for _ = 1 to 80 do
      let client = Cluster.client c in
      let vrng = Xrand.split (Weaver_sim.Engine.rng (Cluster.runtime c).Runtime.engine) in
      let rec loop () =
        let v = vertices.(Xrand.int vrng (Array.length vertices)) in
        Client.run_program_async client ~prog:"clustering" ~params:Progval.Null
          ~starts:[ v ] ~consistency
          ~on_result:(fun _ ->
            incr completed;
            loop ())
          ()
      in
      loop ()
    done;
    let duration = 200_000.0 in
    Cluster.run_for c duration;
    float_of_int !completed /. (duration /. 1e6)
  in
  let strong = run ~replicas:0 ~consistency:`Strong in
  let weak1 = run ~replicas:1 ~consistency:`Weak in
  let weak2 = run ~replicas:2 ~consistency:`Weak in
  line "%-28s %12s" "configuration" "queries/s";
  line "%-28s %12.0f" "primaries only (strong)" strong;
  line "%-28s %12.0f" "1 replica/shard (weak)" weak1;
  line "%-28s %12.0f" "2 replicas/shard (weak)" weak2;
  line "weak reads may be stale by the replication lag (one network hop)";
  (* the §6.4 shape: each replica adds close to one primary's capacity *)
  if weak1 < 1.8 *. strong then failwith "A5: 1 replica/shard below 1.8x primaries only";
  if weak2 < 2.7 *. strong then failwith "A5: 2 replicas/shard below 2.7x primaries only"

let ablation_adaptive_tau () =
  header "Ablation A6: dynamic clock-synchronization period (par. 3.5)";
  let run ~adaptive ~tau ~clients =
    let cfg =
      {
        Config.default with
        Config.adaptive_tau = adaptive;
        Config.tau;
        Config.n_shards = 4;
        Config.seed = 26;
      }
    in
    let rng = Xrand.create ~seed:26 () in
    let c, vertices =
      Scenario.install cfg (Graphgen.uniform ~rng ~prefix:"a" ~vertices:500 ~edges:4_000 ())
    in
    let r = Tao.Driver.run c ~vertices ~clients ~duration:500_000.0 ~read_fraction:0.9 () in
    let ops = max 1 r.Tao.Driver.completed in
    let ctr = Cluster.counters c in
    ( float_of_int ctr.Runtime.announce_msgs /. float_of_int ops,
      float_of_int ctr.Runtime.oracle_consults /. float_of_int ops,
      Cluster.gk_tau c 0 )
  in
  line "%-26s %16s %18s %14s" "configuration" "announces/query" "oracle msgs/query" "final tau(us)";
  List.iter
    (fun (label, adaptive, tau, clients) ->
      let a, o, t = run ~adaptive ~tau ~clients in
      line "%-26s %16.3f %18.3f %14.0f" label a o t)
    [
      ("fixed 10us, busy", false, 10.0, 40);
      ("fixed 100ms, busy", false, 100_000.0, 40);
      ("adaptive, busy", true, 1_000.0, 40);
      ("fixed 10us, light", false, 10.0, 2);
      ("adaptive, light", true, 1_000.0, 2);
    ]

let ablation_freshness () =
  header "Ablation A7: update visibility vs Kineograph-style epochs (par. 7)";
  (* Weaver: a write is readable as soon as its commit returns; measure the
     gap between commit time and first successful strong read *)
  let cfg = { Config.default with Config.seed = 27 } in
  let c = Scenario.cluster cfg in
  let client = Cluster.client c in
  Scenario.create_vertices client [ "fresh" ];
  let weaver_staleness = Stats.create () in
  for i = 1 to 20 do
    let t0 = Cluster.now c in
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:"fresh" ~key:"v" ~value:(string_of_int i);
    ignore (ok_exn "write" (Client.commit client tx));
    (* first read that observes the new value *)
    let seen = ref false in
    while not !seen do
      match
        Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "fresh" ] ()
      with
      | Ok (Progval.List [ s ]) ->
          if Progval.assoc_opt "v" (Progval.assoc "props" s) = Some (Progval.Str (string_of_int i))
          then seen := true
      | _ -> ()
    done;
    Stats.add weaver_staleness (Cluster.now c -. t0)
  done;
  (* Kineograph model: updates visible at the next epoch seal *)
  let engine = Weaver_sim.Engine.create ~seed:27 () in
  let rngk = Xrand.create ~seed:27 () in
  let kg = Kineograph_like.create engine ~epoch_length:10_000_000.0 (* 10 s *) in
  let kine_staleness = Stats.create () in
  for i = 1 to 20 do
    Weaver_sim.Engine.run ~until:(Weaver_sim.Engine.now engine +. Xrand.float rngk 9_000_000.0) engine;
    Kineograph_like.update kg ~key:"fresh" ~value:i;
    (* advance until the write becomes visible, then record its age *)
    let visible = ref false in
    while not !visible do
      Weaver_sim.Engine.run ~until:(Weaver_sim.Engine.now engine +. 100_000.0) engine;
      if Kineograph_like.query kg ~key:"fresh" = Some i then visible := true
    done;
    match Kineograph_like.query_staleness kg ~key:"fresh" with
    | Some age -> Stats.add kine_staleness age
    | None -> ()
  done;
  line "%-22s %20s" "system" "update->visible (ms)";
  line "%-22s %20.1f" "weaver (mean)" (Stats.mean weaver_staleness /. 1e3);
  line "%-22s %20.1f" "kineograph (mean)" (Stats.mean kine_staleness /. 1e3);
  line "(Kineograph buffers updates for its 10 s epochs, par. 7; Weaver's
refinable timestamps make them visible within a commit round trip)"

(* ------------------------------------------------------------------ *)
(* Per-request latency breakdown from the causal tracer: where a
   transaction's latency goes (gatekeeper admission, store round trips,
   shard queueing, oracle waits) and what it costs in messages. Emits
   BENCH_breakdown.json next to the console table. *)

let breakdown () =
  header "Latency breakdown (traced mixed run)";
  let r = Mixedbench.run Mixedbench.default_opts in
  let c = r.Mixedbench.mx_cluster in
  let tr = Option.get (Cluster.request_tracer c) in
  let msgs_per_tx = Stats.create () in
  List.iter
    (fun id ->
      let n = Weaver_obs.Trace.message_count tr id in
      if n > 0 then Stats.add msgs_per_tx (float_of_int n))
    r.Mixedbench.mx_tx_traces;
  let ctr = Cluster.counters c in
  let committed = max 1 ctr.Runtime.tx_committed in
  let announce_per_tx =
    float_of_int ctr.Runtime.announce_msgs /. float_of_int committed
  in
  print_string (Mixedbench.phase_table c);
  line "messages/tx: mean %.1f p99 %.0f | announces/committed tx: %.2f"
    (Stats.mean msgs_per_tx)
    (Stats.percentile msgs_per_tx 99.0)
    announce_per_tx;
  write_bench "breakdown" ~seed:Config.default.Config.seed
    [
      "\"phases\": {"
      ^ indented
          (List.map
             (fun (label, n, p50, p99) ->
               Printf.sprintf "\"%s\": {\"n\": %d, \"p50_us\": %.1f, \"p99_us\": %.1f}" label n
                 p50 p99)
             (Mixedbench.phases c))
      ^ "}";
      Printf.sprintf "\"messages_per_tx\": {\"mean\": %.2f, \"p50\": %.0f, \"p99\": %.0f}"
        (Stats.mean msgs_per_tx)
        (Stats.percentile msgs_per_tx 50.0)
        (Stats.percentile msgs_per_tx 99.0);
      Printf.sprintf "\"announce_overhead\": {\"announces\": %d, \"per_committed_tx\": %.3f}"
        ctr.Runtime.announce_msgs announce_per_tx;
    ]

(* ------------------------------------------------------------------ *)
(* Timeline: TAO-mix throughput sampled across a mid-run shard crash —
   the time-dimension view of the §4.3 recovery story. Emits
   BENCH_timeline.json with the full ops/s series and a dip/recovery
   summary. *)

let timeline () =
  header "Timeline: TAO-mix throughput across a shard crash and recovery";
  let period = 25_000.0 in
  let crash_at = 500_000.0 in
  let duration = 1_500_000.0 in
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = 2;
      Config.n_shards = 4;
      Config.enable_timeline = true;
      Config.timeline_period = period;
    }
  in
  let rng = Xrand.create ~seed:5 () in
  let c, vertices =
    Scenario.install cfg (Graphgen.uniform ~rng ~prefix:"tl" ~vertices:1_000 ~edges:4_000 ())
  in
  let rt = Cluster.runtime c in
  Weaver_sim.Engine.schedule rt.Runtime.engine
    ~delay:(crash_at -. Cluster.now c)
    (fun () ->
      line "  [%.0f ms] killing shard 0" (crash_at /. 1000.0);
      Cluster.kill_shard c 0);
  ignore (Tao.Driver.run c ~vertices ~clients:20 ~duration ());
  let tl = Option.get (Cluster.timeline c) in
  let ops_series =
    (* committed txs + completed programs, as windowed per-second rates *)
    let progs = Weaver_obs.Timeline.rates tl "prog.completed" in
    List.map
      (fun (t, tx_rate) ->
        let p = match List.assoc_opt t progs with Some v -> v | None -> 0.0 in
        (t, tx_rate +. p))
      (Weaver_obs.Timeline.rates tl "tx.committed")
  in
  let mean = function
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let pre =
    mean (List.filter_map (fun (t, v) -> if t < crash_at then Some v else None) ops_series)
  in
  let dip =
    List.fold_left Float.min Float.infinity
      (List.filter_map
         (fun (t, v) ->
           if t >= crash_at && t <= crash_at +. 300_000.0 then Some v else None)
         ops_series)
  in
  let post =
    mean
      (List.filter_map
         (fun (t, v) -> if t > crash_at +. 500_000.0 then Some v else None)
         ops_series)
  in
  line "pre-crash %.0f ops/s | dip %.0f ops/s | post-recovery %.0f ops/s" pre dip post;
  line "recoveries: %d | epoch: %d" (Cluster.counters c).Runtime.recoveries
    (Cluster.epoch c);
  let series f = String.concat ", " (List.map (fun p -> Printf.sprintf "%.0f" (f p)) ops_series) in
  write_bench "timeline" ~seed:cfg.Config.seed
    [
      Printf.sprintf "\"period_us\": %.0f, \"crash_at_us\": %.0f, \"duration_us\": %.0f" period
        crash_at duration;
      Printf.sprintf "\"series\": {\n    \"time_us\": [%s],\n    \"ops_per_s\": [%s]\n  }"
        (series fst) (series snd);
      Printf.sprintf
        "\"summary\": {\"pre_crash_ops_s\": %.0f, \"dip_ops_s\": %.0f, \
         \"post_recovery_ops_s\": %.0f, \"recoveries\": %d}"
        pre dip post (Cluster.counters c).Runtime.recoveries;
    ]

(* ------------------------------------------------------------------ *)
(* Chaos: TAO-style mix under a rolling crash/restart fault plan, client
   reliability layer off vs on — same seed, same plan, so the availability
   and recovery-time deltas isolate what retries + failure-aware routing +
   duplicate suppression buy. Emits BENCH_chaos.json with both runs. *)

let chaos () =
  header "Chaos: availability under rolling crashes, reliability off vs on";
  let base = { Chaosbench.default_opts with Chaosbench.co_seed = 42 } in
  let off = Chaosbench.run { base with Chaosbench.co_reliable = false } in
  let on_ = Chaosbench.run { base with Chaosbench.co_reliable = true } in
  line "%s" (Chaosbench.summary "off" off);
  line "%s" (Chaosbench.summary "on" on_);
  line "availability delta: +%.3f"
    (on_.Chaosbench.r_availability -. off.Chaosbench.r_availability);
  write_bench "chaos" ~seed:base.Chaosbench.co_seed
    [ "\"off\": " ^ Chaosbench.to_json off; "\"on\": " ^ Chaosbench.to_json on_ ]

(* ------------------------------------------------------------------ *)
(* Contention ({!Contentionbench}): blocking vs non-blocking refinement
   at three key skews. Reports oracle consults per committed transaction
   and the commit-visibility tail (shard enqueue -> apply, the segment
   refinement stalls inflate; the gatekeeper ack path never waits on the
   shard, so client-observed ack latency is blind to the difference).
   Emits BENCH_contention.json. *)

let contention () =
  header "Contention: skewed write races, blocking vs non-blocking refinement";
  let open Contentionbench in
  let seed = default_opts.ct_seed in
  let contention_arm ~nonblocking ~theta =
    run { default_opts with ct_theta = theta; ct_nonblocking = nonblocking }
  in
  let thetas = [ 0.0; 0.6; 0.9 ] in
  let sweep =
    List.map
      (fun theta ->
        let blocking = contention_arm ~nonblocking:false ~theta in
        let nonblocking = contention_arm ~nonblocking:true ~theta in
        (theta, blocking, nonblocking))
      thetas
  in
  print_string (table sweep);
  (* determinism: the non-blocking arm at the highest skew reruns to the
     identical counter fingerprint *)
  let hot = List.hd (List.rev thetas) in
  let again = contention_arm ~nonblocking:true ~theta:hot in
  let _, _, hot_nb = List.hd (List.rev sweep) in
  let deterministic = again.cr_fingerprint = hot_nb.cr_fingerprint in
  line "deterministic rerun (theta %.1f): %b" hot deterministic;
  if not deterministic then failwith "contention: rerun diverged";
  List.iter
    (fun (theta, bl, nb) ->
      if nb.cr_consults_per_tx >= bl.cr_consults_per_tx then
        failwith
          (Printf.sprintf
             "contention: consults/tx did not decrease at theta %.1f" theta);
      if nb.cr_p99_apply > bl.cr_p99_apply || nb.cr_p50_apply >= bl.cr_p50_apply
      then
        failwith
          (Printf.sprintf "contention: latency did not improve at theta %.1f"
             theta))
    sweep;
  write_bench "contention" ~seed
    [
      "\"workload\": {\"writers\": 9, \"commits_per_writer\": 40, \"keys\": 16, \"shards\": 1, \"gatekeepers\": 3}";
      "\"sweep\": ["
      ^ indented
          (List.map
             (fun (theta, bl, nb) ->
               Printf.sprintf
                 "{\"theta\": %.1f,\n     \"blocking\": %s,\n     \"nonblocking\": %s}" theta
                 (to_json bl) (to_json nb))
             sweep)
      ^ "]";
      Printf.sprintf "\"deterministic_rerun\": %b" deterministic;
    ]

(* ------------------------------------------------------------------ *)
(* Overload: open-loop offered-load sweep across the admission-capacity
   knee, flow control (admission limit + deadline shedding + shard
   credits, §DESIGN 11) off vs on. The off arm collapses past saturation
   (every queued request eventually times out); the on arm sheds the
   excess early and keeps goodput at capacity with a bounded tail.
   Control traffic (NOPs, heartbeats) is exempt from shedding, so its
   counters must match across arms. Emits BENCH_overload.json. *)

let overload () =
  header "Overload: open-loop goodput sweep, flow control off vs on";
  let base = Overloadbench.default_opts in
  let sat =
    Overloadbench.saturation_rate ~gatekeepers:base.Overloadbench.ov_gatekeepers
      ~gk_op_cost:Config.default.Config.gk_op_cost
  in
  line "saturation ~= %.0f req/s (%d gatekeepers x %.0f us/admit)" sat
    base.Overloadbench.ov_gatekeepers Config.default.Config.gk_op_cost;
  let mults = [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let arm ~flow mult =
    Overloadbench.run
      { base with Overloadbench.ov_flow = flow; Overloadbench.ov_rate = sat *. mult }
  in
  let sweep =
    List.map (fun mult -> (mult, arm ~flow:false mult, arm ~flow:true mult)) mults
  in
  print_string (Overloadbench.table sweep);
  let find mult = List.find (fun (m, _, _) -> m = mult) sweep in
  (* peak-capacity goodput: the on arm at the knee *)
  let _, _, on_1x = find 1.0 in
  let _, off_2x, on_2x = find 2.0 in
  let peak = on_1x.Overloadbench.v_goodput in
  line "at 2x: goodput on %.0f (peak %.0f) vs off %.0f | p99 on %.1f us vs off %.1f us"
    on_2x.Overloadbench.v_goodput peak off_2x.Overloadbench.v_goodput
    on_2x.Overloadbench.v_p99 off_2x.Overloadbench.v_p99;
  if on_2x.Overloadbench.v_goodput < 0.9 *. peak then
    failwith "overload: on-arm goodput at 2x fell below 90% of peak";
  if off_2x.Overloadbench.v_goodput > 0.7 *. peak then
    failwith "overload: off arm did not collapse at 2x saturation";
  if on_2x.Overloadbench.v_p99 > 10.0 *. on_1x.Overloadbench.v_p99 then
    failwith "overload: on-arm p99 not bounded at 2x saturation";
  (* control traffic is never shed: NOP and heartbeat counts are timer
     driven and must be identical across arms at every offered load *)
  List.iter
    (fun (mult, off, on_) ->
      if
        off.Overloadbench.v_nop_msgs <> on_.Overloadbench.v_nop_msgs
        || off.Overloadbench.v_heartbeats <> on_.Overloadbench.v_heartbeats
      then
        failwith
          (Printf.sprintf "overload: control traffic diverged at %.2fx" mult))
    sweep;
  (* determinism: the on arm at 2x reruns to the identical fingerprint *)
  let again = arm ~flow:true 2.0 in
  let deterministic =
    again.Overloadbench.v_fingerprint = on_2x.Overloadbench.v_fingerprint
  in
  line "deterministic rerun (2x, flow on): %b" deterministic;
  if not deterministic then failwith "overload: rerun diverged";
  write_bench "overload" ~seed:base.Overloadbench.ov_seed
    [
      Printf.sprintf "\"saturation_rps\": %.0f" sat;
      Printf.sprintf
        "\"knobs\": {\"admission_limit\": %d, \"deadline_budget_us\": %.0f, \"shard_credits\": %d}"
        base.Overloadbench.ov_admission_limit base.Overloadbench.ov_deadline_budget
        base.Overloadbench.ov_shard_credits;
      "\"sweep\": ["
      ^ indented
          (List.map
             (fun (mult, off, on_) ->
               Printf.sprintf "{\"load_multiplier\": %.2f,\n     \"off\": %s,\n     \"on\": %s}"
                 mult (Overloadbench.to_json off) (Overloadbench.to_json on_))
             sweep)
      ^ "]";
      Printf.sprintf "\"deterministic_rerun\": %b" deterministic;
    ]

(* ------------------------------------------------------------------ *)
(* Snapshot reads ({!Snapshotbench}, §DESIGN 12): historical analytics
   latency and concurrent write throughput, snapshot store off vs on.
   Writers must not slow down: snapshots are built off the durable store
   at watermark boundaries, never by locking the live graph. Emits
   BENCH_snapshot.json. *)

let snapshot () =
  header "Snapshot reads: pinned historical analytics vs live write mix";
  let open Snapshotbench in
  let seed = default_opts.sn_seed in
  let snapshot_arm ~snap = run { default_opts with sn_snapshots = snap } in
  let off = snapshot_arm ~snap:false in
  let on_ = snapshot_arm ~snap:true in
  print_string (table [ ("off", off); ("on", on_) ]);
  (* the tail is where gate waits and demand paging land; the median is
     dominated by network round trips in both arms, so require a solid
     tail win and a no-worse median *)
  if on_.sr_p99_read >= 0.8 *. off.sr_p99_read || on_.sr_p50_read > off.sr_p50_read
  then failwith "snapshot: analytics latency did not improve";
  if float_of_int off.sr_writes > 1.1 *. float_of_int on_.sr_writes then
    failwith "snapshot: write throughput regressed beyond noise";
  if on_.sr_published = 0 || on_.sr_pinned = 0 then
    failwith "snapshot: on arm never pinned a snapshot";
  if off.sr_published <> 0 || off.sr_pinned <> 0 then
    failwith "snapshot: off arm touched snapshot counters";
  (* determinism: the on arm reruns to the identical fingerprint *)
  let again = snapshot_arm ~snap:true in
  let deterministic = again.sr_fingerprint = on_.sr_fingerprint in
  line "deterministic rerun (snapshots on): %b" deterministic;
  if not deterministic then failwith "snapshot: rerun diverged";
  write_bench "snapshot" ~seed
    [
      "\"workload\": {\"vertices\": 600, \"writers\": 4, \"analytics_starts\": 64, \"shards\": 4, \"gatekeepers\": 2, \"shard_capacity\": 120, \"gc_period_us\": 5000}";
      "\"arms\": {" ^ indented [ "\"off\": " ^ to_json off; "\"on\": " ^ to_json on_ ] ^ "}";
      Printf.sprintf "\"deterministic_rerun\": %b" deterministic;
    ]

(* ------------------------------------------------------------------ *)
(* Skew: heat-attribution accuracy and cost under zipf-skewed writes.
   Closed-loop writers issue single-vertex property writes over 128 keys
   with zipf-ranked selection; the exact per-key touch tally (setup create
   + every committed write) is the ground truth the per-shard Space-Saving
   sketches are scored against. Reports, per theta: merged top-K
   precision/recall vs the true hottest set (tie-tolerant: a pick counts
   if its true tally reaches the K-th largest — under light skew many keys
   tie at the boundary and any of them is a correct answer). Then: an
   induced mid-run hot-spot flip (rank->key mapping rotated by half the
   keyspace) with the virtual-time detection latency until the new hottest
   key enters the merged top-K; the heat-on vs heat-off cost (virtual
   write throughput must be bit-identical — recording never schedules
   events — plus wall-clock CPU time, informational); and a deterministic
   rerun (counter fingerprint and heat JSON both identical). Emits
   BENCH_skew.json. *)

type skew_run = {
  sk_committed : int;
  sk_aborted : int;
  sk_precision : float;
  sk_recall : float;
  sk_throughput : float;  (* committed writes per virtual second *)
  sk_cpu_s : float;  (* wall-clock, informational *)
  sk_cross : int;  (* cross-shard touches recorded (setup fan-out) *)
  sk_fingerprint : int * int * int * int * int;
  sk_heat_json : string;  (* "" when heat is off *)
}

let skew_keys = 128
let skew_k = 8
let skew_key i = Printf.sprintf "z%03d" i

let skew_cfg ~heat ~seed =
  {
    Config.default with
    Config.seed;
    Config.n_gatekeepers = 2;
    Config.n_shards = 4;
    Config.enable_heat = heat;
    Config.heat_topk = 16;
    (* over-provision the sketch 2x vs the reported K, standard practice *)
    Config.heat_ranges = 64;
  }

(* merged cluster-wide top-K: per-shard sketch tables ranked together by
   estimate, ties on the key — same deterministic order as Sketch.top *)
let skew_merged_top c ~k =
  match Cluster.heat c with
  | None -> []
  | Some h ->
      List.concat
        (List.init (Weaver_obs.Heat.shards h) (fun s ->
             Weaver_obs.Heat.top h ~shard:s))
      |> List.sort (fun (ka, ca, _) (kb, cb, _) ->
             if ca <> cb then compare cb ca else String.compare ka kb)
      |> List.filteri (fun i _ -> i < k)

(* spawn [writers] closed-loop writers, each committing [per_writer]
   single-key property writes with zipf(theta)-ranked key selection
   through [rank_to_key]; tallies ground truth into [true_counts] *)
let skew_writers c ~writers ~per_writer ~theta ~seed ~rank_to_key ~true_counts =
  Scenario.writers c ~writers
    ~seed:(fun i -> seed + (1_000 * (i + 1)))
    ~continue:(fun committed -> committed < per_writer)
    ~pick:(fun rng -> rank_to_key (Xrand.zipf rng ~n:skew_keys ~theta))
    ~vid:skew_key
    ~on_commit:(fun key _ -> true_counts.(key) <- true_counts.(key) + 1)
    ()

(* tie-tolerant scoring: a pick is correct if its true tally reaches the
   K-th largest tally; recall is over the keys strictly above that bar
   (the picks no correct answer may omit) *)
let skew_score ~true_counts picks =
  let sorted = Array.copy true_counts in
  Array.sort (fun a b -> compare b a) sorted;
  let threshold = sorted.(skew_k - 1) in
  let true_of key = true_counts.(int_of_string (String.sub key 1 3)) in
  let correct = List.filter (fun (key, _, _) -> true_of key >= threshold) picks in
  let definite = ref [] in
  Array.iteri
    (fun i n -> if n > threshold then definite := skew_key i :: !definite)
    true_counts;
  let found =
    List.filter (fun key -> List.exists (fun (k, _, _) -> k = key) picks) !definite
  in
  let precision = float_of_int (List.length correct) /. float_of_int skew_k in
  let recall =
    if !definite = [] then 1.0 (* every key ties at the bar: nothing to miss *)
    else float_of_int (List.length found) /. float_of_int (List.length !definite)
  in
  (precision, recall)

let skew_arm ~heat ~theta ~seed =
  let cpu0 = Sys.time () in
  let c = Scenario.cluster (skew_cfg ~heat ~seed) in
  (* one 128-key create fanning out to all 4 shards: the cross-shard touch
     path gets exercised before the single-shard writer phase *)
  Scenario.create_vertices (Cluster.client c) (List.init skew_keys skew_key);
  Cluster.run_for c 5_000.0;
  let true_counts = Array.make skew_keys 1 (* the setup create *) in
  let t0 = Cluster.now c in
  let done_writers =
    skew_writers c ~writers:8 ~per_writer:60 ~theta ~seed ~rank_to_key:(fun r -> r)
      ~true_counts
  in
  Scenario.drain c done_writers ~writers:8 ~label:"skew";
  let t1 = Cluster.now c in
  Cluster.run_for c 20_000.0;
  let ctr = Cluster.counters c in
  let rt = Cluster.runtime c in
  let precision, recall =
    if heat then skew_score ~true_counts (skew_merged_top c ~k:skew_k)
    else (0.0, 0.0)
  in
  let cross =
    match Cluster.heat c with
    | Some h ->
        let n = ref 0 in
        for s = 0 to Weaver_obs.Heat.shards h - 1 do
          n := !n + Weaver_obs.Heat.total h ~shard:s ~kind:Weaver_obs.Heat.Cross
        done;
        !n
    | None -> 0
  in
  {
    sk_committed = ctr.Runtime.tx_committed;
    sk_aborted = ctr.Runtime.tx_aborted;
    sk_precision = precision;
    sk_recall = recall;
    sk_throughput = float_of_int (8 * 60) /. (t1 -. t0) *. 1.0e6;
    sk_cpu_s = Sys.time () -. cpu0;
    sk_cross = cross;
    sk_fingerprint =
      ( ctr.Runtime.tx_committed,
        ctr.Runtime.tx_aborted,
        ctr.Runtime.oracle_consults,
        Weaver_sim.Net.messages_sent rt.Runtime.net,
        ctr.Runtime.nop_msgs );
    sk_heat_json =
      (match Cluster.heat c with
      | Some h -> Weaver_obs.Export.heat_json h ~now:(Cluster.now c)
      | None -> "");
  }

(* the induced hot-spot flip: phase A writes through the identity rank
   mapping (hottest key z000), then the mapping rotates by half the
   keyspace (hottest key z064) and phase B polls the merged top-K until
   the new hottest key appears *)
let skew_flip ~seed =
  let theta = 0.9 in
  let c = Scenario.cluster (skew_cfg ~heat:true ~seed) in
  Scenario.create_vertices (Cluster.client c) (List.init skew_keys skew_key);
  Cluster.run_for c 5_000.0;
  let true_counts = Array.make skew_keys 1 in
  let done_a =
    skew_writers c ~writers:8 ~per_writer:50 ~theta ~seed ~rank_to_key:(fun r -> r)
      ~true_counts
  in
  Scenario.drain c done_a ~writers:8 ~label:"skew flip phase A";
  let flip_at = Cluster.now c in
  let new_hot = skew_key (skew_keys / 2) in
  let done_b =
    skew_writers c ~writers:8 ~per_writer:50 ~theta ~seed:(seed + 77)
      ~rank_to_key:(fun r -> (r + (skew_keys / 2)) mod skew_keys)
      ~true_counts
  in
  let detected = ref None in
  let budget = ref 4_000 in
  while !done_b < 8 && !budget > 0 do
    decr budget;
    Cluster.run_for c 500.0;
    if
      !detected = None
      && List.exists (fun (k, _, _) -> k = new_hot) (skew_merged_top c ~k:skew_k)
    then detected := Some (Cluster.now c -. flip_at)
  done;
  if !done_b < 8 then failwith "skew flip: writers stalled";
  !detected

let skew () =
  header "Skew: heavy-hitter sketch accuracy, flip detection, and heat cost";
  let seed = 11 in
  let thetas = [ 0.0; 0.6; 0.9; 1.1 ] in
  let sweep = List.map (fun theta -> (theta, skew_arm ~heat:true ~theta ~seed)) thetas in
  line "%-6s %10s %10s %11s %12s %8s" "theta" "committed" "precision" "recall"
    "writes/s" "cross";
  List.iter
    (fun (theta, r) ->
      line "%-6.1f %10d %10.3f %11.3f %12.0f %8d" theta r.sk_committed
        r.sk_precision r.sk_recall r.sk_throughput r.sk_cross)
    sweep;
  let hot = List.assoc 0.9 sweep in
  if hot.sk_precision < 0.9 then
    failwith
      (Printf.sprintf "skew: precision@%d %.3f < 0.9 at theta 0.9" skew_k
         hot.sk_precision);
  (* the heat-off arm: virtual outcomes must be bit-identical (recording
     never schedules events), so the write-throughput overhead is exactly
     zero; wall-clock CPU time is reported for the real cost *)
  let off = skew_arm ~heat:false ~theta:0.9 ~seed in
  if off.sk_fingerprint <> hot.sk_fingerprint then
    failwith "skew: heat-on fingerprint diverged from heat-off";
  let tp_overhead =
    abs_float (hot.sk_throughput -. off.sk_throughput) /. off.sk_throughput
  in
  line "heat-off arm: %.0f writes/s, overhead %.2f%% (cpu %.3fs off / %.3fs on)"
    off.sk_throughput (100.0 *. tp_overhead) off.sk_cpu_s hot.sk_cpu_s;
  if tp_overhead > 0.02 then failwith "skew: write-throughput overhead above 2%";
  (* induced hot-spot flip at theta 0.9: budget 25 virtual ms *)
  let flip_budget = 25_000.0 in
  (match skew_flip ~seed with
  | Some lat ->
      line "hot-spot flip detected after %.0f us (budget %.0f us)" lat flip_budget;
      if lat > flip_budget then failwith "skew: flip detection over budget"
  | None -> failwith "skew: flip never detected");
  let again = skew_arm ~heat:true ~theta:0.9 ~seed in
  let deterministic =
    again.sk_fingerprint = hot.sk_fingerprint && again.sk_heat_json = hot.sk_heat_json
  in
  line "deterministic rerun (theta 0.9): %b" deterministic;
  if not deterministic then failwith "skew: rerun diverged";
  let flip_lat = match skew_flip ~seed with Some l -> l | None -> 0.0 in
  write_bench "skew" ~seed
    [
      Printf.sprintf
        "\"workload\": {\"writers\": 8, \"commits_per_writer\": 60, \"keys\": %d, \"shards\": 4, \"gatekeepers\": 2, \"sketch_k\": 16, \"reported_k\": %d}"
        skew_keys skew_k;
      "\"sweep\": ["
      ^ indented
          (List.map
             (fun (theta, r) ->
               Printf.sprintf
                 "{\"theta\": %.1f, \"committed\": %d, \"aborted\": %d, \"precision_at_k\": %.4f, \"recall_at_k\": %.4f, \"writes_per_s\": %.0f, \"cross_touches\": %d}"
                 theta r.sk_committed r.sk_aborted r.sk_precision r.sk_recall r.sk_throughput
                 r.sk_cross)
             sweep)
      ^ "]";
      Printf.sprintf
        "\"overhead\": {\"heat_off_writes_per_s\": %.0f, \"heat_on_writes_per_s\": %.0f, \"throughput_overhead\": %.4f, \"cpu_s_off\": %.4f, \"cpu_s_on\": %.4f, \"fingerprint_identical\": true}"
        off.sk_throughput hot.sk_throughput tp_overhead off.sk_cpu_s hot.sk_cpu_s;
      Printf.sprintf
        "\"flip\": {\"theta\": 0.9, \"detection_latency_us\": %.0f, \"budget_us\": %.0f}" flip_lat
        flip_budget;
      Printf.sprintf "\"deterministic_rerun\": %b" deterministic;
    ]

(* -------------------------------------------------------------------- *)
(* Rebalance ({!Rebalancebench}, §4.6): after the hot-set flip the
   on arm's skew must return to within 1.2× of its pre-flip (converged)
   value, while the rebalance-off arm stays pinned above the hysteresis
   bar. Goodput must stay within 10% of the off arm (migrations abort
   racing writers, not the reverse), and the whole run — move log
   included — reruns bit-identically. Emits BENCH_rebalance.json. *)

let rebalance () =
  header "Rebalance: closing the sense-plan-act loop on a hot-spot flip";
  let open Rebalancebench in
  let seed = default_opts.re_seed in
  let reb_arm ~rebalance = run { default_opts with re_rebalance = rebalance } in
  let on = reb_arm ~rebalance:true in
  let off = reb_arm ~rebalance:false in
  print_string (table [ ("off", off); ("on", on) ]);
  (* the loop must close: post-flip skew back within 1.2x of pre-flip *)
  if on.rb_moves = 0 then failwith "rebalance: planner never moved anything";
  if on.rb_skew_post > 1.2 *. on.rb_skew_pre then
    failwith
      (Printf.sprintf "rebalance: skew %.3f did not recover (pre-flip %.3f)"
         on.rb_skew_post on.rb_skew_pre);
  (* without the planner the hot spot stays pinned above the hysteresis bar *)
  if off.rb_skew_post < Balancer.hysteresis then
    failwith
      (Printf.sprintf "rebalance: off arm unexpectedly balanced (skew %.3f)"
         off.rb_skew_post);
  let goodput_delta =
    abs_float (on.rb_goodput -. off.rb_goodput) /. off.rb_goodput
  in
  line "goodput delta %.2f%% (migrations abort racing writers, bounded)"
    (100.0 *. goodput_delta);
  if goodput_delta > 0.10 then failwith "rebalance: goodput delta above 10%";
  let again = reb_arm ~rebalance:true in
  let deterministic =
    again.rb_fingerprint = on.rb_fingerprint && again.rb_move_log = on.rb_move_log
  in
  line "deterministic rerun: %b" deterministic;
  if not deterministic then failwith "rebalance: rerun diverged";
  write_bench "rebalance" ~seed
    [
      "\"workload\": {\"writers\": 8, \"commits_per_writer_per_phase\": 120, \"hot_set\": 16, \
       \"keys\": 128, \"shards\": 4, \"gatekeepers\": 2, \"rebalance_period_us\": 10000}";
      "\"off\": " ^ to_json off;
      "\"on\": " ^ to_json on;
      Printf.sprintf "\"goodput_delta\": %.4f" goodput_delta;
      Printf.sprintf "\"deterministic_rerun\": %b" deterministic;
    ]

(* ------------------------------------------------------------------ *)
(* Replication ({!Replbench}): read scale-out from partial replication
   of hot ranges, then a covered pinned read across an owner crash. *)

(* owner crash under fire: warm a replicated range until a weak read is
   routed to a follower, pin a read at a covered stamp, crash the owner,
   re-issue — same answer. Returns (crashed owner, warm-up reads). *)
let owner_crash ~seed =
  let c =
    Scenario.cluster
      {
        Config.default with
        Config.seed;
        n_gatekeepers = 1;
        n_shards = 4;
        enable_heat = true;
        enable_replication = true;
        replication_factor = 2;
        gc_period = 2_000.0;
      }
  in
  let client = Cluster.client c in
  Scenario.create_vertices client [ "hot" ];
  let owner = Cluster.shard_of_vertex c "hot" in
  let ctr = Cluster.counters c in
  let tries = ref 0 in
  while ctr.Runtime.repl_routed = 0 && !tries < 300 do
    incr tries;
    ignore
      (Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "hot" ]
         ~consistency:`Weak ());
    Cluster.run_for c 200.0
  done;
  if ctr.Runtime.repl_routed = 0 then
    failwith "replication chaos: range never became replicated";
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"hot" ~key:"v" ~value:"final";
  ok_exn "replication chaos write" (Client.commit client tx);
  Cluster.run_for c 6_000.0;
  let ts = Cluster.gk_clock c 0 in
  Cluster.run_for c 6_000.0;
  let prop_v result =
    match result with
    | Progval.List [ s ] ->
        Option.map Progval.to_str (Progval.assoc_opt "v" (Progval.assoc "props" s))
    | _ -> failwith "replication chaos: unexpected get_node shape"
  in
  let read_at () =
    ok_exn "replication chaos pinned read"
      (Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "hot" ]
         ~at:ts ())
  in
  let baseline = prop_v (read_at ()) in
  if baseline <> Some "final" then failwith "replication chaos: pinned read missed the write";
  let crash_at = Cluster.now c +. 500.0 in
  ignore
    (Cluster.install_fault_plan c
       (Weaver_sim.Fault.scripted
          [ (crash_at, Weaver_sim.Fault.Crash (Weaver_sim.Fault.Shard owner)) ]));
  Cluster.run_for c 1_000.0;
  if prop_v (read_at ()) <> baseline then
    failwith "replication chaos: covered read diverged after owner crash";
  (owner, !tries)

let replication () =
  header "Replication: read scale-out from hot-range partial replication";
  let open Replbench in
  let seed = default_opts.rl_seed in
  let repl_arm ~factor ~theta = run { default_opts with rl_factor = factor; rl_theta = theta } in
  let factors = [ 0; 1; 2; 3 ] and thetas = [ 0.6; 0.9; 1.1 ] in
  let runs =
    List.concat_map
      (fun theta -> List.map (fun factor -> repl_arm ~factor ~theta) factors)
      thetas
  in
  print_string (table runs);
  let arm ~theta ~factor =
    List.find (fun r -> r.rp_theta = theta && r.rp_factor = factor) runs
  in
  let base = arm ~theta:0.9 ~factor:0 and best = arm ~theta:0.9 ~factor:3 in
  let speedup = best.rp_goodput /. base.rp_goodput in
  line "read goodput at theta 0.9: factor 0 -> 3 is %.2fx" speedup;
  if speedup < 1.5 then
    failwith
      (Printf.sprintf "replication: %.2fx read scale-out below the 1.5x bar"
         speedup);
  if best.rp_writes < 0.95 *. base.rp_writes then
    failwith
      (Printf.sprintf
         "replication: write throughput sagged %.0f -> %.0f (>5%%)"
         base.rp_writes best.rp_writes);
  let again = repl_arm ~factor:3 ~theta:0.9 in
  let deterministic = again.rp_fingerprint = best.rp_fingerprint in
  line "deterministic rerun: %b" deterministic;
  if not deterministic then failwith "replication: rerun diverged";
  let crashed_owner, warm_tries = owner_crash ~seed in
  line "chaos: covered pinned read survived crash of owner shard %d" crashed_owner;
  write_bench "replication" ~seed
    [
      "\"workload\": {\"vertices\": 64, \"edges\": 128, \"readers\": 48, \"writers\": 8, \
       \"duration_us\": 250000, \"warmup_us\": 50000, \"shards\": 4, \"gatekeepers\": 4, \
       \"vertex_read_cost_us\": 40}";
      "\"arms\": [" ^ indented (List.map to_json runs) ^ "]";
      Printf.sprintf "\"read_scaleout_theta09_f3_vs_f0\": %.4f" speedup;
      Printf.sprintf "\"write_delta_theta09_f3_vs_f0\": %.4f" (best.rp_writes /. base.rp_writes);
      Printf.sprintf
        "\"chaos\": {\"crashed_owner\": %d, \"warmup_reads\": %d, \"covered_read_survived\": true}"
        crashed_owner warm_tries;
      Printf.sprintf "\"deterministic_rerun\": %b" deterministic;
    ]

(* ------------------------------------------------------------------ *)
(* Work counters ({!Workbench}): the simulator's own cost per simulated
   op, as deterministic counts and allocated words, gated against the
   committed BENCH_work.json (bounds in EXPERIMENTS.md). A passing run
   rewrites the file; a failing one leaves it as committed. With no
   committed file the run gates only determinism and GC scaling, and
   writes a fresh baseline. *)

let work () =
  header "Work counters: simulator cost per simulated op";
  let file = "BENCH_work.json" in
  let committed =
    if Sys.file_exists file then
      Some
        (Workbench.of_json
           (Weaver_util.Json.parse_exn (In_channel.with_open_text file In_channel.input_all)))
    else None
  in
  let r = Workbench.run Workbench.default_opts in
  print_string (Workbench.table r);
  line "swept/round growth %.2fx (gate <= %.1fx) | deterministic rerun: %b"
    r.Workbench.w_swept_growth Workbench.max_swept_growth r.Workbench.w_deterministic;
  match Workbench.check ~baseline:(Option.value ~default:r committed) r with
  | [] ->
      line "gate: %s" (if committed = None then "no committed baseline" else "ok");
      write_bench "work" ~seed:r.Workbench.w_opts.Workbench.wk_seed (Workbench.to_json r)
  | failures ->
      List.iter (line "FAIL %s") failures;
      failwith (Printf.sprintf "work: %d check(s) failed against %s" (List.length failures) file)

(* [work] comes first: its word counts are gated as measured in a fresh
   process *)
let all =
  [
    ("work", work);
    ("table1", table1);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9a", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("ablation_cache", ablation_cache);
    ("ablation_truetime", ablation_truetime);
    ("ablation_partition", ablation_partition);
    ("ablation_nop", ablation_nop);
    ("ablation_replicas", ablation_replicas);
    ("ablation_adaptive_tau", ablation_adaptive_tau);
    ("ablation_freshness", ablation_freshness);
    ("breakdown", breakdown);
    ("timeline", timeline);
    ("chaos", chaos);
    ("contention", contention);
    ("overload", overload);
    ("snapshot", snapshot);
    ("skew", skew);
    ("rebalance", rebalance);
    ("replication", replication);
  ]
