(* The repository benchmark: three workloads driven open loop through the
   public API, measured end to end (virtual-time latency and goodput, plus
   the simulator's own CPU, set-up time and heap) and layer by layer
   (counters, reservoirs and spans read from outside the program).

     main.exe --workload tao_read|tao_contended|analytics_pinned
              --seed N --seconds S --trace 0|1

   Prints one line per metric (value, unit, sample count), then as its
   last line one JSON object with every metric, the counter fingerprint
   and the config digest; perfbench/run.py builds this program, selects
   the metrics BENCHMARK.json declares and stamps the artefact. The exit
   code is 1 when a correctness or determinism check fails. See
   perfbench/README.md for why each workload exists. *)

open Weaver
module Runtime = Weaver_core.Runtime
module Msg = Weaver_core.Msg
module H = Helpers
module L = Openloop

(* ------------------------------------------------------------------ *)
(* Workloads *)

type mix =
  | Tao_mix of { read_fraction : float; theta : float }
      (** Table 1 / Fig. 9b mixes via [Tao.gen_op] *)
  | Analytics of { write_fraction : float; depth : int }
      (** uniform property writes beside [nhop_count] at a pinned cut *)

type spec = {
  name : string;
  cfg : Config.t;
  n_vertices : int;
  n_edges : int;
  mix : mix;
  rate : float;  (** nominal offered load, ops per virtual second *)
  window : float;  (** virtual µs of arrivals in the measured phase *)
  ladder : float list;  (** rate-ladder steps, ops/s; [] = no ladder *)
}

let warmup = 10_000.0 (* µs before the first arrival: timers settle *)
let drain = 40_000.0 (* µs after the last arrival for replies to land *)
let n_clients = 32
let ladder_step = 50_000.0
let ladder_limit_us = 5_000.0
let ladder_min_pace = 0.98
let cpu_slice = 10_000.0
let setup_samples = 25
let setup_extra_s = 3.0

let specs =
  [
    {
      name = "tao_read";
      cfg = Config.default;
      n_vertices = 100_000;
      n_edges = 200_000;
      mix = Tao_mix { read_fraction = Tao.table1_read_fraction; theta = 0.75 };
      rate = 50_000.0;
      window = 1_200_000.0;
      (* 40–110% of the 2 gatekeepers × 1/gk_op_cost = 100k ops/s admission
         capacity *)
      ladder =
        [ 40_000.; 55_000.; 70_000.; 80_000.; 90_000.; 95_000.; 100_000.; 105_000.; 110_000. ];
    };
    {
      name = "tao_contended";
      cfg = Config.default;
      n_vertices = 2_000;
      n_edges = 4_000;
      mix = Tao_mix { read_fraction = 0.75; theta = 0.9 };
      rate = 20_000.0;
      window = 400_000.0;
      ladder = [];
    };
    {
      name = "analytics_pinned";
      cfg = { Config.default with Config.snapshot_reads = true };
      n_vertices = 20_000;
      n_edges = 40_000;
      mix = Analytics { write_fraction = 0.5; depth = 3 };
      rate = 4_000.0;
      window = 600_000.0;
      ladder = [];
    };
  ]

(* Writers retry OCC conflicts, as the paper's clients do (§4.2): a
   conflict costs a retry and latency, not a failed operation. *)
let policy =
  {
    Client.reliable_policy with
    Client.rp_attempts = 16;
    rp_backoff = 200.0;
    rp_backoff_cap = 5_000.0;
  }

(* Independent streams from the one workload seed. *)
let graph_seed seed = (seed * 1_000_003) + 17
let ops_seed seed = (seed * 7_777_777) + 5

let wall () = Unix.gettimeofday ()
let cpu () = Sys.time ()

(* ------------------------------------------------------------------ *)
(* Machine speed *)

(* A fixed job that shares no code with the program under test but is
   written like it: small allocations, string keys, a persistent map and
   short lists. It allocates less than the minor heap holds and runs right
   after an (untimed) minor collection, so it never triggers a collection
   and the simulator's heap cannot change its cost. *)
module Calib_map = Map.Make (String)

let calibration_job () =
  let m = ref Calib_map.empty in
  for i = 1 to 1500 do
    let k = string_of_int ((i * 7919) land 1023) in
    m :=
      Calib_map.update k
        (function
          | None -> Some [ i ] | Some l -> Some (i :: List.filteri (fun j _ -> j < 4) l))
        !m
  done;
  ignore (Sys.opaque_identity !m)

(* The calibration job's CPU on the machine the benchmark was defined on,
   a quiet 2-core Intel Xeon KVM guest: the unit [sim_ops_per_cpu_s] and
   [setup_s] are expressed in. *)
let calib_ref_ms = 0.55

(* The job's median CPU over a few calls, in ms. *)
let calibrate_now () =
  H.median
    (List.init 5 (fun _ ->
         Gc.minor ();
         let c0 = cpu () in
         calibration_job ();
         1000.0 *. (cpu () -. c0)))

(* ------------------------------------------------------------------ *)
(* Set-up *)

type setup = {
  cluster : Cluster.t;
  vids : string array;
  adj : int list array;  (** offline adjacency by vertex index *)
  graphgen_s : float;
  install_s : float;
  setup_s : float;
  setup_calib_ms : float;  (** the calibration job, timed right after set-up *)
}

let config spec ~seed ~traced =
  let cfg = { spec.cfg with Config.seed } in
  if traced then
    { cfg with Config.enable_tracing = true; trace_capacity = 1 lsl 20 }
  else cfg

let setup spec ~seed ~traced =
  (* start every set-up from a compacted heap, so earlier runs' garbage
     does not bill its collection to this one *)
  Gc.compact ();
  let t0 = wall () in
  let cluster = Cluster.create (config spec ~seed ~traced) in
  Programs.Std.register_all (Cluster.registry cluster);
  let t1 = wall () in
  let g =
    Graphgen.uniform
      ~rng:(Xrand.create ~seed:(graph_seed seed) ())
      ~vertices:spec.n_vertices ~edges:spec.n_edges ()
  in
  let t2 = wall () in
  Loader.fast_install cluster g;
  let t3 = wall () in
  let adj = Array.make spec.n_vertices [] in
  List.iter (fun (s, d) -> adj.(s) <- d :: adj.(s)) g.Graphgen.edges;
  {
    cluster;
    vids = Array.init spec.n_vertices (Graphgen.vid g);
    adj;
    graphgen_s = t2 -. t1;
    install_s = t3 -. t2;
    setup_s = t3 -. t0;
    setup_calib_ms = calibrate_now ();
  }

(* ------------------------------------------------------------------ *)
(* Operation generators and their correctness bookkeeping *)

type edge_log = {
  pool : (string * string) Queue.t;  (** acknowledged, deletable (src, eid) *)
  live : (string * string, unit) Hashtbl.t;
      (** acknowledged creates with no delete issued or acknowledged *)
  gone : (string * string, unit) Hashtbl.t;  (** acknowledged deletes *)
}

let is_list = function Progval.List _ -> true | _ -> false
let is_int = function Progval.Int n -> n >= 0 | _ -> false
let one_vertex = function Progval.List [ _ ] -> true | _ -> false
let ignore_error (_ : string) = ()

let tao_gen st ~rng ~read_fraction ~theta log =
  let create src dst =
    let eid = ref "" in
    L.Tx
      {
        build = (fun tx -> eid := Client.Tx.create_edge tx ~src ~dst);
        on_result =
          (function
          | Ok () ->
              Hashtbl.replace log.live (src, !eid) ();
              Queue.push (src, !eid) log.pool
          | Error _ -> ());
      }
  in
  let read prog start check =
    L.Prog { prog; params = Progval.Null; start; at = None; check; on_error = ignore_error }
  in
  fun () ->
    match Tao.gen_op ~rng ~vertices:st.vids ~read_fraction ~theta () with
    | Tao.Get_edges v -> read "get_edges" v is_list
    | Tao.Count_edges v -> read "count_edges" v is_int
    | Tao.Get_node v -> read "get_node" v one_vertex
    | Tao.Create_edge (src, dst) -> create src dst
    | Tao.Delete_edge fallback -> (
        (* delete an edge this driver created and saw acknowledged; with
           none yet, create one so the write share stays intact *)
        match Queue.take_opt log.pool with
        | None -> create fallback fallback
        | Some (src, eid) ->
            (* in flight, the edge may or may not be gone yet *)
            Hashtbl.remove log.live (src, eid);
            L.Tx
              {
                build = (fun tx -> Client.Tx.delete_edge tx ~src ~eid);
                on_result =
                  (function
                  | Ok () -> Hashtbl.replace log.gone (src, eid) ()
                  | Error _ ->
                      Hashtbl.replace log.live (src, eid) ();
                      Queue.push (src, eid) log.pool);
              })

let analytics_gen st ~rng ~write_fraction ~depth =
  let cluster = st.cluster in
  let n = Array.length st.vids in
  let cut = ref None in
  let capture () = cut := Some (Cluster.gk_clock cluster 0) in
  let writes = ref 0 in
  fun () ->
    if Xrand.float rng 1.0 < write_fraction then begin
      let vid = st.vids.(Xrand.int rng n) in
      incr writes;
      let value = string_of_int !writes in
      L.Tx
        {
          build = (fun tx -> Client.Tx.set_vertex_prop tx ~vid ~key:"p" ~value);
          on_result = ignore;
        }
    end
    else begin
      if Option.is_none !cut then capture ();
      let i = Xrand.int rng n in
      (* only properties change, so the traversal must match the BFS of
         the generated graph whatever the cut *)
      let expect = H.bfs_count st.adj ~start:i ~depth in
      L.Prog
        {
          prog = "nhop_count";
          params = Progval.Assoc [ ("depth", Progval.Int depth) ];
          start = st.vids.(i);
          at = !cut;
          check = (function Progval.Int got -> got = expect | _ -> false);
          on_error = (fun e -> if String.equal e "snapshot-gced" then capture ());
        }
    end

(* Every acknowledged create not later deleted is live in the store, and
   every acknowledged delete left no live version. *)
let check_edges cluster log =
  let live_eid src eid =
    match Cluster.stored_vertex cluster src with
    | None -> false
    | Some v ->
        Array.exists
          (fun (e : Mgraph.edge) ->
            String.equal e.Mgraph.eid eid && Option.is_none e.Mgraph.e_life.Mgraph.deleted)
          v.Mgraph.out
  in
  let errs = ref [] in
  Hashtbl.iter
    (fun (src, eid) () ->
      if not (live_eid src eid) then
        errs := Printf.sprintf "acknowledged edge %s/%s missing" src eid :: !errs)
    log.live;
  Hashtbl.iter
    (fun (src, eid) () ->
      if live_eid src eid then
        errs := Printf.sprintf "deleted edge %s/%s still live" src eid :: !errs)
    log.gone;
  (Hashtbl.length log.live + Hashtbl.length log.gone, !errs)

(* ------------------------------------------------------------------ *)
(* One simulated run *)

type mode =
  | Plain  (** untraced, nothing hooked: the end-to-end measurement *)
  | Sliced  (** untraced, message kinds counted, CPU timed around GC rounds *)
  | Traced  (** [Config.enable_tracing]: spans for per-layer self times *)

type run = {
  st : setup;
  phase : L.phase;
  cpu_s : float;  (** process CPU of the measured phase *)
  slices : float array;  (** simulator CPU per [cpu_slice] (calibrated runs) *)
  calib : float array;  (** calibration-job CPU after each slice *)
  deltas : (string * int) list;  (** registry counters over the phase *)
  minor_words : float;
  promoted_words : float;
  fingerprint : string;
  round_cpu_ms : (float * int) option;  (** mean round − control, rounds *)
  msg_kinds : (string, int) Hashtbl.t;
  ladder : H.step list;
  checked_edges : int;
  errors : string list;
}

let engine st = (Cluster.runtime st.cluster).Runtime.engine
let run_until st t = Engine.run ~until:t (engine st)

let fingerprint cluster =
  Metrics.int_values (Cluster.metrics cluster)
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let delta before after =
  List.map
    (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
    after

(* CPU of the watermark rounds: around each GC-period boundary (where
   every gatekeeper sends its watermark) time a short window, and an equal
   window half a period later as the control. *)
let sliced_until st ~stop =
  let period = (Cluster.config st.cluster).Config.gc_period in
  let w = 250.0 in
  let diffs = ref [] in
  let timed t =
    let c0 = cpu () in
    run_until st t;
    cpu () -. c0
  in
  let k = ref (Float.to_int (Float.ceil (Cluster.now st.cluster /. period))) in
  while (float_of_int !k *. period) +. (period /. 2.0) +. w < stop do
    let b = float_of_int !k *. period in
    run_until st b;
    let round = timed (b +. w) in
    run_until st (b +. (period /. 2.0));
    let control = timed (b +. (period /. 2.0) +. w) in
    diffs := (round -. control) :: !diffs;
    incr k
  done;
  run_until st stop;
  match !diffs with
  | [] -> None
  | ds -> Some (1000.0 *. List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds), List.length ds)

(* Run to [stop] in [cpu_slice] steps with the calibration job after each;
   returns the simulator's CPU per slice and the job's CPU after each. *)
let calibrated_until st ~stop =
  let sim = ref [] and cal = ref [] in
  let t = ref (Cluster.now st.cluster) in
  while !t < stop do
    t := Float.min stop (!t +. cpu_slice);
    let c0 = cpu () in
    run_until st !t;
    let c1 = cpu () in
    Gc.minor ();
    let c2 = cpu () in
    calibration_job ();
    sim := (c1 -. c0) :: !sim;
    cal := (cpu () -. c2) :: !cal
  done;
  (Array.of_list (List.rev !sim), Array.of_list (List.rev !cal))

(* Contiguous ladder steps, each judged at its end: an op still outstanding
   past the latency limit is a miss and enters the tail with its age so far
   (a lower bound on its latency); younger outstanding ops are not judged.
   Also returns the steps' failed correctness checks. *)
let ladder_steps st ~gen ~clients ~rng (spec : spec) =
  let wrong = ref 0 in
  let rec go start acc = function
    | [] -> (List.rev acc, wrong)
    | rate :: rest ->
        let phase = L.schedule st.cluster ~clients ~rng ~gen ~rate ~start ~window:ladder_step in
        let stop = start +. ladder_step in
        run_until st stop;
        let judged =
          List.filter_map
            (fun s ->
              if L.succeeded s then Some (L.latency s)
              else if s.L.due <= stop -. ladder_limit_us then Some (stop -. s.L.due)
              else None)
            phase.L.samples
          |> Array.of_list
        in
        let done_ = List.length (List.filter L.succeeded phase.L.samples) in
        wrong := !wrong + phase.L.wrong;
        let step =
          {
            H.rate;
            p99_us =
              (match H.tail_percentile judged ~want:99.0 with
              | Some p -> p.H.value
              | None -> infinity);
            kept_pace = float_of_int done_ /. float_of_int (max 1 (Array.length judged));
          }
        in
        if H.pressure ~limit_us:ladder_limit_us ~min_pace:ladder_min_pace step > 1.0 then
          (List.rev (step :: acc), wrong)
        else go stop (step :: acc) rest
  in
  go (Cluster.now st.cluster) [] spec.ladder

let run_once ?(calibrate = false) spec ~seed ~mode ~with_ladder =
  let st = setup spec ~seed ~traced:(mode = Traced) in
  let c = st.cluster in
  let clients =
    Array.init n_clients (fun _ ->
        let cl = Cluster.client c in
        Client.set_retry_policy cl policy;
        cl)
  in
  let rng = Xrand.create ~seed:(ops_seed seed) () in
  let log =
    { pool = Queue.create (); live = Hashtbl.create 256; gone = Hashtbl.create 256 }
  in
  let gen =
    match spec.mix with
    | Tao_mix { read_fraction; theta } -> tao_gen st ~rng ~read_fraction ~theta log
    | Analytics { write_fraction; depth } -> analytics_gen st ~rng ~write_fraction ~depth
  in
  let msg_kinds = Hashtbl.create 32 in
  if mode = Sliced then begin
    let rt = Cluster.runtime c in
    let base = Runtime.obs_net_hook rt in
    Net.set_tracer rt.Runtime.net
      (Some
         (fun ~time ~src ~dst m ->
           let k = Msg.kind m in
           Hashtbl.replace msg_kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt msg_kinds k));
           match base with Some h -> h ~time ~src ~dst m | None -> ()))
  end;
  let start = Cluster.now c +. warmup in
  let phase = L.schedule c ~clients ~rng ~gen ~rate:spec.rate ~start ~window:spec.window in
  let stop = phase.L.p_stop +. drain in
  let before = Metrics.int_values (Cluster.metrics c) in
  let minor0 = Gc.minor_words () and promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let c0 = cpu () in
  let round_cpu_ms, cpu_s, (slices, calib) =
    match mode with
    | Sliced ->
        let r = sliced_until st ~stop in
        (r, cpu () -. c0, ([||], [||]))
    | (Plain | Traced) when calibrate ->
        let sim, cal = calibrated_until st ~stop in
        (None, Array.fold_left ( +. ) 0.0 sim, (sim, cal))
    | Plain | Traced ->
        run_until st stop;
        (None, cpu () -. c0, ([||], [||]))
  in
  let minor_words = Gc.minor_words () -. minor0 in
  let promoted_words = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  let deltas = delta before (Metrics.int_values (Cluster.metrics c)) in
  let fingerprint = fingerprint c in
  let ladder, ladder_wrong =
    if with_ladder then ladder_steps st ~gen ~clients ~rng spec else ([], ref 0)
  in
  (* settle outstanding ladder traffic before reading the durable state *)
  if with_ladder then run_until st (Cluster.now c +. drain);
  let wrong = phase.L.wrong + !ladder_wrong in
  let checked_edges, edge_errs =
    match spec.mix with Tao_mix _ -> check_edges c log | Analytics _ -> (0, [])
  in
  let errors =
    edge_errs
    @
    if wrong > 0 then [ Printf.sprintf "%d program results failed their check" wrong ]
    else []
  in
  {
    st;
    phase;
    cpu_s;
    slices;
    calib;
    deltas;
    minor_words;
    promoted_words;
    fingerprint;
    round_cpu_ms;
    msg_kinds;
    ladder;
    checked_edges;
    errors;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { m_name : string; m_value : float; m_unit : string; m_note : string }

let metric ?(note = "") m_name m_unit m_value = { m_name; m_value; m_unit; m_note = note }

let pct_metric name samples ~want =
  match H.tail_percentile samples ~want with
  | None -> []
  | Some p ->
      [
        metric name "us" p.H.value
          ~note:(Printf.sprintf "p%.2f of n=%d, %d beyond" p.H.q p.H.n p.H.beyond);
      ]

let samples_of kind (r : run) =
  List.filter (fun s -> s.L.kind = kind && L.succeeded s) r.phase.L.samples
  |> List.map L.latency |> Array.of_list

let attempted r = List.length r.phase.L.samples
let failed r = List.length (List.filter (fun s -> not (L.succeeded s)) r.phase.L.samples)
let window_s spec = spec.window /. 1e6

(* Virtual-time end-to-end metrics: deterministic per seed. *)
let virtual_metrics spec r =
  let reads = samples_of L.Read r and writes = samples_of L.Write r in
  pct_metric "read_p50_us" reads ~want:50.0
  @ pct_metric "read_p99_us" reads ~want:99.0
  @ pct_metric "write_p50_us" writes ~want:50.0
  @ pct_metric "write_p99_us" writes ~want:99.0
  @ [
      metric "goodput_ops_s" "ops/s"
        (float_of_int (attempted r - failed r) /. window_s spec)
        ~note:(Printf.sprintf "%d ok of %d offered at %.0f ops/s" (attempted r - failed r)
                 (attempted r) spec.rate);
      metric "failed_ratio" "ratio"
        (float_of_int (failed r) /. float_of_int (max 1 (attempted r)))
        ~note:(Printf.sprintf "%d of %d" (failed r) (attempted r));
    ]

let virtual_key spec r =
  virtual_metrics spec r
  |> List.map (fun m -> Printf.sprintf "%s=%h" m.m_name m.m_value)
  |> String.concat ";"

let ops_per_cpu r = float_of_int (attempted r - failed r) /. r.cpu_s

(* Simulator throughput at reference machine speed. On a shared host other
   tenants slow it in spells from a fraction of a second to many seconds. The
   repeats do identical work slice by slice, so each slice is charged the
   median CPU the repeats spent on it, which drops a spell that hit a
   minority of the repeats; a spell that outlasts them all slows the
   calibration job timed between the same slices as well, and the figure
   is scaled back by the job's median slowdown. *)
let sim_ops_per_cpu_s runs =
  let first = List.hd runs in
  let per_slice field =
    Array.mapi (fun i _ -> H.median (List.map (fun r -> (field r).(i)) runs)) (field first)
  in
  let sim = Array.fold_left ( +. ) 0.0 (per_slice (fun r -> r.slices)) in
  let cal = per_slice (fun r -> r.calib) in
  let cal_ms = 1000.0 *. Array.fold_left ( +. ) 0.0 cal /. float_of_int (Array.length cal) in
  (float_of_int (attempted first - failed first) /. sim *. cal_ms /. calib_ref_ms, cal_ms)

let d r name = float_of_int (Option.value ~default:0 (List.assoc_opt name r.deltas))
let per x n = if n > 0.0 then x /. n else 0.0

let reservoir_values cluster name =
  match List.assoc_opt name (Metrics.reservoirs (Cluster.metrics cluster)) with
  | None -> [||]
  | Some s -> Stats.cdf s ~points:(Stats.count s) |> List.map fst |> Array.of_list

let reservoir_metric r name ~res ~want =
  match pct_metric name (reservoir_values r.st.cluster res) ~want with
  | [] -> [ metric name "us" 0.0 ~note:"no samples" ]
  | ms -> ms

let layer_metrics (plain : run) (sliced : run) =
  let r = plain in
  let ops = float_of_int (attempted r) in
  let reads = float_of_int (List.length (List.filter (fun s -> s.L.kind = L.Read) r.phase.L.samples)) in
  let writes = ops -. reads in
  let events = d r "engine.events" in
  (* metric-name form of a message kind: "Shard_tx(nop)" -> "shard_tx_nop" *)
  let slug k =
    String.map (fun ch -> match ch with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> ch | _ -> '_')
      (String.lowercase_ascii k)
    |> String.split_on_char '_' |> List.filter (( <> ) "") |> String.concat "_"
  in
  let kinds =
    Hashtbl.fold (fun k n acc -> (slug k, n) :: acc) sliced.msg_kinds [] |> List.sort compare
  in
  (* a fixed core so every workload reports the same names, then any
     other kind the run produced *)
  let core =
    [ "tx_req"; "tx_reply"; "prog_req"; "prog_reply"; "prog_batch"; "prog_partial"; "prog_gc";
      "shard_tx"; "shard_tx_nop"; "announce"; "commit_note"; "watermark"; "heartbeat" ]
  in
  let kind_names = core @ List.filter (fun k -> not (List.mem k core)) (List.map fst kinds) in
  let consults = d r "shard.oracle_consults" in
  let hits = d r "oracle.cache_hits" and oracle_consults = d r "oracle.consults" in
  let commits = d r "store.commits" and aborts = d r "store.aborts" in
  let round_ms, rounds = Option.value ~default:(0.0, 0) sliced.round_cpu_ms in
  [
    metric "sim.events_per_op" "count" (per events ops);
    metric "sim.cpu_us_per_event" "us" (per (r.cpu_s *. 1e6) events)
      ~note:(Printf.sprintf "%.0f events" events);
    metric "sim.msgs_per_op" "count" (per (d r "net.sent") ops);
  ]
  @ List.map
      (fun k ->
        let n = Option.value ~default:0 (List.assoc_opt k kinds) in
        metric (Printf.sprintf "sim.msgs.%s_per_op" k) "count" (per (float_of_int n) ops))
      kind_names
  @ [
      metric "sim.in_flight_high_water" "count"
        (float_of_int
           (Option.value ~default:0
              (List.assoc_opt "net.in_flight_hwm" (Metrics.int_values (Cluster.metrics r.st.cluster)))));
      metric "gc.minor_words_per_op" "words" (per r.minor_words ops);
      metric "gc.promoted_words_per_op" "words" (per r.promoted_words ops);
    ]
  @ reservoir_metric r "gatekeeper.admission_wait_p99_us" ~res:"gk.admission_wait" ~want:99.0
  @ reservoir_metric r "gatekeeper.tx_service_p50_us" ~res:"gk.tx_service" ~want:50.0
  @ reservoir_metric r "gatekeeper.store_rtt_p50_us" ~res:"gk.store_rtt" ~want:50.0
  @ [
      metric "gatekeeper.announce_per_op" "count" (per (d r "msg.announce") ops);
      metric "gatekeeper.nop_per_op" "count" (per (d r "msg.nop") ops);
    ]
  @ reservoir_metric r "shard.prog_gate_wait_p50_us" ~res:"shard.prog_gate_wait" ~want:50.0
  @ reservoir_metric r "shard.queue_wait_p99_us" ~res:"shard.queue_wait" ~want:99.0
  @ reservoir_metric r "shard.oracle_wait_p99_us" ~res:"shard.oracle_wait" ~want:99.0
  @ reservoir_metric r "shard.prog_hop_wait_p99_us" ~res:"shard.prog_hop_wait" ~want:99.0
  @ [
      metric "shard.round_cpu_ms" "ms" round_ms
        ~note:(Printf.sprintf "mean over %d rounds, minus control windows" rounds);
      metric "oracle.consults_per_write" "count" (per oracle_consults writes);
      metric "oracle.cache_hit_ratio" "ratio" (per hits (hits +. oracle_consults));
      metric "oracle.batching_factor" "ratio" (1.0 +. per (d r "shard.oracle_batched") consults);
      metric "oracle.events" "count" (float_of_int (Cluster.oracle_queries r.st.cluster));
      metric "store.abort_ratio" "ratio" (per aborts (commits +. aborts));
      metric "client.retries_per_op" "count" (per (d r "client.retries") ops);
      metric "store.snapshots_published" "count" (d r "snap.published");
      metric "store.pinned_read_ratio" "ratio" (per (d r "snap.pinned_reads") (d r "msg.prog_batch"));
      metric "store.gc_deferred" "count" (d r "snap.gc_deferred");
      metric "programs.vertices_read_per_read" "count" (per (d r "prog.vertices_read") reads);
      metric "programs.prog_batch_msgs_per_read" "count" (per (d r "msg.prog_batch") reads);
    ]

(* Per-span virtual self time over the traced run, joined to the
   benchmark's own per-request spans (due → reply) by request id. The
   benchmark span's own self time is the client-side residue: time no
   server span covers. *)
let span_names =
  [ "gk.admission"; "gk.tx"; "gk.prog"; "store.round_trip"; "shard.queue";
    "shard.prog_gate"; "shard.prog_exec"; "shard.prog_hop" ]

let span_metrics (traced : run) =
  let tr = Option.get (Cluster.request_tracer traced.st.cluster) in
  let acc = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace acc name (v :: Option.value ~default:[] (Hashtbl.find_opt acc name))
  in
  let joined = ref 0 in
  List.iter
    (fun s ->
      if L.succeeded s && s.L.req > 0 then begin
        let forest = Trace.assemble tr s.L.req in
        if forest <> [] then incr joined;
        let interval (t : Trace.tree) = (t.Trace.node.Trace.sp_start, t.Trace.node.Trace.sp_stop) in
        let rec walk (t : Trace.tree) =
          let sp = t.Trace.node in
          if (not (Float.is_nan sp.Trace.sp_stop)) && List.mem sp.Trace.sp_name span_names then
            add sp.Trace.sp_name
              (H.self_time ~start:sp.Trace.sp_start ~stop:sp.Trace.sp_stop
                 (List.map interval t.Trace.children));
          List.iter walk t.Trace.children
        in
        List.iter walk forest;
        add "bench.request" (H.self_time ~start:s.L.due ~stop:s.L.fin (List.map interval forest))
      end)
    traced.phase.L.samples;
  let one name =
    let xs = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt acc name)) in
    List.concat_map
      (fun (suffix, want) ->
        let mname = Printf.sprintf "trace.%s.self_%s_us" name suffix in
        match pct_metric mname xs ~want with
        | [] -> [ metric mname "us" 0.0 ~note:"no samples" ]
        | ms -> ms)
      [ ("p50", 50.0); ("p99", 99.0) ]
  in
  (List.concat_map one (span_names @ [ "bench.request" ]), !joined)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_string s = "\"" ^ Metrics.json_escape s ^ "\""

(* a value that is not a finite number is written as null, which run.py
   refuses like a missing metric *)
let json_metric m =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"note\": %s}" (json_string m.m_name)
    (if Float.is_finite m.m_value then Printf.sprintf "%.17g" m.m_value else "null")
    (json_string m.m_unit) (json_string m.m_note)

let print_metrics ms =
  List.iter
    (fun m -> Printf.printf "  %-44s %16.6g %-6s %s\n" m.m_name m.m_value m.m_unit m.m_note)
    ms

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let config_digest spec ~seed =
  Digest.to_hex (Digest.string (Marshal.to_string (config spec ~seed ~traced:false) []))

let main ~workload ~seed ~seconds ~trace =
  let spec =
    match List.find_opt (fun s -> String.equal s.name workload) specs with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S (expected one of: %s)\n" workload
          (String.concat ", " (List.map (fun s -> s.name) specs));
        exit 2
  in
  let t_start = wall () in
  Printf.printf "workload %s  seed %d  trace %d  config %s\n%!" spec.name seed trace
    (config_digest spec ~seed);
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let same what (a : run) (b : run) =
    if not (String.equal a.fingerprint b.fingerprint) then
      fail "%s: counter fingerprint %s <> %s" what a.fingerprint b.fingerprint;
    if not (String.equal (virtual_key spec a) (virtual_key spec b)) then
      fail "%s: virtual-time metrics differ" what
  in
  (* the peak heap after the first run, before repeats add garbage *)
  let heap_mb = ref 0.0 in
  (* every run repeats the same seeded simulation: at least three times
     for the medians, more while [seconds] allows; all must agree *)
  let runs =
    if trace = 0 then begin
      let first =
        run_once ~calibrate:true spec ~seed ~mode:Plain ~with_ladder:(spec.ladder <> [])
      in
      heap_mb := top_heap_mb ();
      let rec more acc =
        if List.length acc >= 3 && wall () -. t_start >= seconds then List.rev acc
        else begin
          let r = run_once ~calibrate:true spec ~seed ~mode:Plain ~with_ladder:false in
          same "same-seed rerun" first r;
          more (r :: acc)
        end
      in
      more [ first ]
    end
    else begin
      let plain = run_once spec ~seed ~mode:Plain ~with_ladder:false in
      let sliced = run_once spec ~seed ~mode:Sliced ~with_ladder:false in
      same "sliced vs unsliced run" plain sliced;
      let traced = run_once spec ~seed ~mode:Traced ~with_ladder:false in
      same "traced vs untraced run" plain traced;
      [ plain; sliced; traced ]
    end
  in
  let first = List.hd runs in
  List.iter (fun r -> List.iter (fail "%s") r.errors) runs;
  (* set-up alone is cheap on the small graphs: repeat it, within a few
     seconds, so its median rests on enough samples *)
  let setups =
    let extra_until = wall () +. setup_extra_s in
    let rec more acc =
      if List.length acc >= setup_samples || wall () >= extra_until then acc
      else more (setup spec ~seed ~traced:false :: acc)
    in
    more (List.map (fun r -> r.st) runs)
  in
  (* wall seconds at reference machine speed, like [sim_ops_per_cpu_s] *)
  let med_setup f =
    H.median (List.map (fun st -> f st *. calib_ref_ms /. st.setup_calib_ms) setups)
  in
  let setup =
    [
      metric "setup_s" "s" (med_setup (fun st -> st.setup_s))
        ~note:
          (Printf.sprintf "median of %d set-ups; raw s @ calibration ms: %s" (List.length setups)
             (String.concat " "
                (List.rev_map
                   (fun st -> Printf.sprintf "%.4f@%.3f" st.setup_s st.setup_calib_ms)
                   setups)));
      metric "loader.graphgen_s" "s" (med_setup (fun st -> st.graphgen_s));
      metric "loader.install_s" "s" (med_setup (fun st -> st.install_s));
    ]
  in
  let metrics =
    if trace = 0 then begin
      let knee =
        match first.ladder with
        | [] -> []
        | steps ->
            List.iter
              (fun s ->
                Printf.printf "  ladder %8.0f ops/s  p99 %10.1f us  kept pace %.3f\n" s.H.rate
                  s.H.p99_us s.H.kept_pace)
              steps;
            [
              metric "max_rate_ops_s" "ops/s"
                (Option.value ~default:0.0
                   (H.knee ~limit_us:ladder_limit_us ~min_pace:ladder_min_pace steps))
                ~note:(Printf.sprintf "%d ladder steps of %.0f ms" (List.length steps)
                         (ladder_step /. 1000.0));
            ]
      in
      virtual_metrics spec first @ knee
      @ [
          (let v, cal_ms = sim_ops_per_cpu_s runs in
           metric "sim_ops_per_cpu_s" "ops/s" v
             ~note:
               (Printf.sprintf "%d runs, calibration %.4f ms vs %.2f; raw per run: %s"
                  (List.length runs) cal_ms calib_ref_ms
                  (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (ops_per_cpu r)) runs))));
          metric "heap_peak_mb" "MB" !heap_mb;
        ]
      @ setup
    end
    else begin
      let plain = List.nth runs 0 and sliced = List.nth runs 1 and traced = List.nth runs 2 in
      let spans, joined = span_metrics traced in
      virtual_metrics spec plain
      @ layer_metrics plain sliced
      @ spans
      @ [
          metric "trace.joined_requests" "count" (float_of_int joined);
          metric "trace.overhead_ratio" "ratio" ((traced.cpu_s /. plain.cpu_s) -. 1.0)
            ~note:(Printf.sprintf "traced %.3f s vs untraced %.3f s CPU" traced.cpu_s plain.cpu_s);
        ]
      @ setup
    end
  in
  print_metrics metrics;
  Printf.printf "  checked %d acknowledged edge writes; %d runs; %.1f s wall\n"
    first.checked_edges (List.length runs) (wall () -. t_start);
  List.iter (Printf.printf "CHECK FAILED: %s\n") (List.rev !errors);
  let correct = !errors = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"workload\": %s, \"seed\": %d, \
     \"trace\": %d, \"config_digest\": %s, \"fingerprint\": %s, \"metrics\": {%s}}\n%!"
    correct (attempted first) (failed first) (json_string spec.name) seed trace
    (json_string (config_digest spec ~seed))
    (json_string first.fingerprint)
    (String.concat ", " (List.map json_metric metrics));
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S wall seconds to keep repeating the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
