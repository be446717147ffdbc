(* The raw-speed gate: deterministic workloads timed with the process
   clock, emitted as BENCH_micro.json.

   Two layers:
   - micro: fixed-iteration loops over the hot building blocks
     (engine scheduling, network send+deliver, heap churn, multi-version
     adjacency reads), reported as ns/op. The workload each loop performs
     is bit-deterministic; only the measured time varies by machine.
   - macro: a table1-style closed-loop TAO mix on a full cluster,
     reported as simulated operations per second of *wall CPU time* (not
     virtual time — this measures the simulator itself, which is what
     caps the 1M+-vertex sweeps in ROADMAP items 1-3).

   The "baseline" block below is the same workload measured on the tree
   as of the start of this PR (commit 4d70e71), so the JSON carries the
   before/after comparison the speed work is gated on. The macro
   fingerprint is asserted identical across an in-process rerun: any
   perturbation of simulated behaviour fails the gate loudly. *)

open Weaver_core
open Weaver_workloads
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Heap = Weaver_util.Heap
module Xrand = Weaver_util.Xrand
module Vclock = Weaver_vclock.Vclock
module Mgraph = Weaver_graph.Mgraph

let line fmt = Printf.printf (fmt ^^ "\n%!")

(* -------------------------------------------------------------- *)
(* Baseline: measured at the seed of this PR on the reference
   machine. ns/op for the micro loops, ops per CPU-second for the
   macro run. *)

let baseline_micro : (string * float) list =
  [
    ("engine.schedule+step", 2908.0);
    ("net.send+deliver", 2048.7);
    ("heap.push+pop x64", 89.2);
    ("mgraph.out_edges (32 versions)", 932.6);
  ]

let baseline_macro_ops_per_cpu_s = 19_861.0

(* -------------------------------------------------------------- *)
(* micro: best-of-three fixed-count loops *)

let time_ns_per_op ~iters f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Sys.time () in
    f ();
    let dt = Sys.time () -. t0 in
    let ns = dt *. 1e9 /. float_of_int iters in
    if ns < !best then best := ns
  done;
  !best

let bench_engine_step () =
  let iters = 400_000 in
  time_ns_per_op ~iters (fun () ->
      let e = Engine.create ~seed:3 () in
      for i = 0 to iters - 1 do
        Engine.schedule e ~delay:(float_of_int ((i * 37) mod 100)) ignore
      done;
      Engine.run e)

let bench_net_send () =
  let iters = 200_000 in
  time_ns_per_op ~iters (fun () ->
      let e = Engine.create ~seed:4 () in
      let net = Net.create e ~latency:(Net.uniform_latency ~base:50.0 ~jitter:20.0) in
      let sink = ref 0 in
      Net.register net 1 (fun ~src:_ m -> sink := !sink + m);
      (* 8 source channels, interleaved, so the FIFO-floor path is hot *)
      for i = 0 to iters - 1 do
        Net.send net ~src:(2 + (i land 7)) ~dst:1 i
      done;
      Engine.run e;
      assert (Net.messages_delivered net = iters))

let bench_heap_churn () =
  let rounds = 6_000 in
  let iters = rounds * 64 in
  time_ns_per_op ~iters (fun () ->
      let h = Heap.create ~cmp:compare in
      for _ = 1 to rounds do
        for i = 0 to 63 do
          Heap.push h ((i * 37) mod 64)
        done;
        while not (Heap.is_empty h) do
          ignore (Heap.pop h)
        done
      done)

let bench_mgraph_out_edges () =
  let at i = Vclock.make ~epoch:0 ~origin:0 [| i |] in
  let v = ref (Mgraph.create_vertex ~vid:"v" ~at:(at 0)) in
  for i = 1 to 32 do
    v := Mgraph.add_edge !v ~eid:(string_of_int i) ~dst:"d" ~at:(at i)
  done;
  let v = !v in
  let before a b = Vclock.precedes a b in
  let iters = 400_000 in
  time_ns_per_op ~iters (fun () ->
      for _ = 1 to iters do
        ignore (Mgraph.out_edges before v ~at:(at 16))
      done)

let run_micro () =
  [
    ("engine.schedule+step", bench_engine_step ());
    ("net.send+deliver", bench_net_send ());
    ("heap.push+pop x64", bench_heap_churn ());
    ("mgraph.out_edges (32 versions)", bench_mgraph_out_edges ());
  ]

(* -------------------------------------------------------------- *)
(* macro: closed-loop TAO mix, fixed virtual window, timed in CPU s *)

type macro_run = {
  m_completed : int;
  m_aborted : int;
  m_cpu_s : float;
  m_ops_per_cpu_s : float;
  m_gc_rounds : int; (* compaction rounds, summed over shards *)
  m_gc_swept : int; (* records handed to Mgraph.compact, summed over shards *)
  m_resident : int; (* records resident in shard memory at the end *)
  m_fingerprint : int * int * int * int * int * int;
}

let macro_seed = 11
let macro_graph_seed = 23
let macro_shards = 4

(* [vertices] sizes the graph (edges = 2 x vertices); the run is the same
   32-client, 400 ms window at every size *)
let macro_arm ?(vertices = 2_000) () =
  let cfg =
    {
      Config.default with
      Config.seed = macro_seed;
      Config.n_gatekeepers = 2;
      Config.n_shards = macro_shards;
    }
  in
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  let rng = Xrand.create ~seed:macro_graph_seed () in
  let g = Graphgen.uniform ~rng ~prefix:"sp" ~vertices ~edges:(2 * vertices) () in
  Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  let vertices = Array.of_list (Graphgen.vertex_ids g) in
  let gc_work () =
    List.init macro_shards (Cluster.shard_gc_work c)
    |> List.fold_left (fun (r, s) (r', s') -> (r + r', s + s')) (0, 0)
  in
  let rounds0, swept0 = gc_work () in
  let t0 = Sys.time () in
  let r = Tao.Driver.run c ~vertices ~clients:32 ~duration:400_000.0 () in
  let cpu = Sys.time () -. t0 in
  let rounds1, swept1 = gc_work () in
  let ctr = Cluster.counters c in
  let rt = Cluster.runtime c in
  {
    m_completed = r.Tao.Driver.completed;
    m_aborted = r.Tao.Driver.aborted;
    m_cpu_s = cpu;
    m_ops_per_cpu_s = float_of_int r.Tao.Driver.completed /. cpu;
    m_gc_rounds = rounds1 - rounds0;
    m_gc_swept = swept1 - swept0;
    m_resident =
      List.fold_left ( + ) 0 (List.init macro_shards (Cluster.shard_resident c));
    m_fingerprint =
      ( r.Tao.Driver.completed,
        r.Tao.Driver.aborted,
        ctr.Runtime.tx_committed,
        ctr.Runtime.progs_completed,
        Net.messages_sent rt.Runtime.net,
        ctr.Runtime.nop_msgs );
  }

let run () =
  line "\n==== Speed gate: micro ns/op and macro simulated-ops per CPU-second ====";
  let micro = run_micro () in
  line "%-34s %12s %12s %8s" "micro" "baseline" "now" "ratio";
  List.iter
    (fun (name, now) ->
      let base = List.assoc name baseline_micro in
      line "%-34s %12.1f %12.1f %8.2f" name base now (base /. Float.max now 1e-9))
    micro;
  let m = macro_arm () in
  (* determinism: the run must reproduce its counter fingerprint exactly *)
  let m2 = macro_arm () in
  let deterministic = m.m_fingerprint = m2.m_fingerprint in
  if not deterministic then failwith "speed: macro rerun fingerprint diverged";
  let c1, a1, tc, pc, ms, nm = m.m_fingerprint in
  line "macro: %d ops (%d aborts) in %.3f CPU s = %.0f ops/s (baseline %.0f, %.2fx)"
    m.m_completed m.m_aborted m.m_cpu_s m.m_ops_per_cpu_s
    baseline_macro_ops_per_cpu_s
    (m.m_ops_per_cpu_s /. baseline_macro_ops_per_cpu_s);
  line "deterministic rerun: %b" deterministic;
  let oc = open_out "BENCH_micro.json" in
  let j fmt = Printf.fprintf oc fmt in
  j "{\n  \"experiment\": \"speed\",\n";
  j "  \"micro_ns_per_op\": [";
  List.iteri
    (fun i (name, now) ->
      let base = List.assoc name baseline_micro in
      j "%s\n    {\"name\": %S, \"before\": %.1f, \"after\": %.1f, \"speedup\": %.2f}"
        (if i = 0 then "" else ",")
        name base now (base /. Float.max now 1e-9))
    micro;
  j "\n  ],\n";
  j "  \"macro\": {\"workload\": \"table1 TAO mix, 2 gk / 4 shards, 32 clients, 400 ms virtual\",\n";
  j "    \"completed\": %d, \"aborted\": %d, \"cpu_s\": %.4f,\n" m.m_completed
    m.m_aborted m.m_cpu_s;
  j "    \"ops_per_cpu_s_before\": %.0f, \"ops_per_cpu_s_after\": %.0f, \"speedup\": %.2f},\n"
    baseline_macro_ops_per_cpu_s m.m_ops_per_cpu_s
    (m.m_ops_per_cpu_s /. baseline_macro_ops_per_cpu_s);
  j "  \"fingerprint\": {\"completed\": %d, \"aborted\": %d, \"tx_committed\": %d, \"progs_completed\": %d, \"messages_sent\": %d, \"nop_msgs\": %d},\n"
    c1 a1 tc pc ms nm;
  j "  \"deterministic_rerun\": %b\n}\n" deterministic;
  close_out oc;
  line "wrote BENCH_micro.json"

(* -------------------------------------------------------------- *)
(* gc_scaling: the watermark round's work must follow the writes it
   compacts, not the partition size. The macro workload runs at 2k and
   100k vertices; the same 400 ms window issues about the same writes at
   both sizes, so records swept per round must stay flat. A round that
   swept every resident record would sweep ~50x more at 100k. *)

let gc_small = 2_000
let gc_large = 100_000

(* the gate: swept per round at [gc_large] over [gc_small] *)
let gc_max_growth = 1.5

let gc_scaling () =
  line "\n==== GC scaling: records swept per watermark round vs graph size ====";
  let per_round m = float_of_int m.m_gc_swept /. float_of_int (max 1 m.m_gc_rounds) in
  let runs = List.map (fun v -> (v, macro_arm ~vertices:v ())) [ gc_small; gc_large ] in
  line "%10s %10s %8s %8s %8s %12s %10s %12s" "vertices" "resident" "ops" "rounds" "swept"
    "swept/round" "cpu_s" "ops/cpu_s";
  List.iter
    (fun (v, m) ->
      line "%10d %10d %8d %8d %8d %12.2f %10.3f %12.0f" v m.m_resident m.m_completed
        m.m_gc_rounds m.m_gc_swept (per_round m) m.m_cpu_s m.m_ops_per_cpu_s)
    runs;
  let small = per_round (List.assoc gc_small runs) in
  let large = per_round (List.assoc gc_large runs) in
  let growth = large /. Float.max small 1e-9 in
  let pass = large <= gc_max_growth *. small in
  line "swept/round growth %.2fx (gate <= %.1fx): %s" growth gc_max_growth
    (if pass then "ok" else "FAIL");
  let oc = open_out "BENCH_gc.json" in
  let j fmt = Printf.fprintf oc fmt in
  j "{\n  \"experiment\": \"gc_scaling\",\n";
  j "  \"config\": {\"seed\": %d, \"graph_seed\": %d, \"gatekeepers\": 2, \"shards\": %d, \"gc_period_us\": %.0f, \"clients\": 32, \"duration_us\": 400000, \"edges_per_vertex\": 2},\n"
    macro_seed macro_graph_seed macro_shards Config.default.Config.gc_period;
  j "  \"note\": \"cpu_s and ops_per_cpu_s are process CPU time on the machine that ran it; every other field is deterministic\",\n";
  j "  \"runs\": [";
  List.iteri
    (fun i (v, m) ->
      j "%s\n    {\"vertices\": %d, \"resident\": %d, \"completed\": %d, \"aborted\": %d, \"gc_rounds\": %d, \"gc_swept\": %d, \"swept_per_round\": %.3f, \"cpu_s\": %.4f, \"ops_per_cpu_s\": %.0f}"
        (if i = 0 then "" else ",")
        v m.m_resident m.m_completed m.m_aborted m.m_gc_rounds m.m_gc_swept (per_round m) m.m_cpu_s
        m.m_ops_per_cpu_s)
    runs;
  j "\n  ],\n";
  j "  \"gate\": {\"swept_per_round_growth\": %.3f, \"max_growth\": %.1f, \"pass\": %b}\n}\n"
    growth gc_max_growth pass;
  close_out oc;
  line "wrote BENCH_gc.json";
  if not pass then failwith "gc_scaling: swept per round grows with graph size"
