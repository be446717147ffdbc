open Weaver_core
module Xrand = Weaver_util.Xrand
module Stats = Weaver_util.Stats

type opts = {
  ov_seed : int;
  ov_gatekeepers : int;
  ov_shards : int;
  ov_clients : int;
  ov_rate : float;
  ov_duration : float;
  ov_drain : float;
  ov_timeout : float;
  ov_read_fraction : float;
  ov_flow : bool;
  ov_admission_limit : int;
  ov_deadline_budget : float;
  ov_shard_credits : int;
}

let default_opts =
  {
    ov_seed = 42;
    ov_gatekeepers = 2;
    ov_shards = 4;
    ov_clients = 8;
    ov_rate = 50_000.0;
    ov_duration = 200_000.0;
    ov_drain = 150_000.0;
    ov_timeout = 40_000.0;
    ov_read_fraction = 0.5;
    ov_flow = false;
    ov_admission_limit = 64;
    ov_deadline_budget = 1_200.0;
    ov_shard_credits = 64;
  }

(* gatekeepers admit serially at [gk_op_cost] µs per request, so the knee
   of the goodput curve sits at one request per gk_op_cost per gatekeeper *)
let saturation_rate ~gatekeepers ~gk_op_cost =
  if gk_op_cost <= 0.0 then infinity
  else float_of_int gatekeepers /. gk_op_cost *. 1e6

type result = {
  v_flow : bool;
  v_seed : int;
  v_rate : float;
  v_offered : int;
  v_ok : int;
  v_timeout : int;
  v_shed : int;
  v_other_err : int;
  v_goodput : float; (* completed-ok requests per second of offered window *)
  v_p50 : float; (* over ok completions only *)
  v_p99 : float;
  v_shed_rate : float;
  v_shed_queue : int;
  v_shed_deadline : int;
  v_shed_credit : int;
  v_credit_msgs : int;
  v_nop_msgs : int;
  v_heartbeats : int;
  v_retries : int;
  v_fingerprint : int * int * int * int * int * int;
}

let is_shed e = String.length e >= 5 && String.equal (String.sub e 0 5) "shed:"

(* Open-loop driver: requests are issued at the offered rate regardless of
   completions (unlike the closed-loop chaos/contention drivers, which
   self-throttle and so can never push the cluster past saturation). The
   issuance RNG is a private stream, identical across both arms. *)
let run opts =
  let cfg =
    {
      Config.default with
      Config.n_gatekeepers = opts.ov_gatekeepers;
      Config.n_shards = opts.ov_shards;
      Config.seed = opts.ov_seed;
      Config.admission_limit = (if opts.ov_flow then opts.ov_admission_limit else 0);
      Config.deadline_budget = (if opts.ov_flow then opts.ov_deadline_budget else 0.0);
      Config.shard_credits = (if opts.ov_flow then opts.ov_shard_credits else 0);
    }
  in
  Config.validate cfg;
  let graph_rng = Xrand.create ~seed:opts.ov_seed () in
  let c, vertices =
    Scenario.install cfg (Graphgen.uniform ~rng:graph_rng ~prefix:"o" ~vertices:300 ~edges:900 ())
  in
  let rng = Xrand.create ~seed:(opts.ov_seed + 1) () in
  let pick () = vertices.(Xrand.int rng (Array.length vertices)) in
  let clients =
    Array.init (max 1 opts.ov_clients) (fun _ ->
        let client = Cluster.client c in
        Client.set_timeout client opts.ov_timeout;
        Client.set_retry_policy client Client.no_retry_policy;
        client)
  in
  let ok = ref 0
  and timeouts = ref 0
  and shed = ref 0
  and other = ref 0 in
  let latencies = Stats.create () in
  let record ~t0 r =
    match r with
    | Ok () ->
        incr ok;
        Stats.add latencies (Cluster.now c -. t0)
    | Error "timeout" -> incr timeouts
    | Error e when is_shed e -> incr shed
    | Error _ -> incr other
  in
  let total = int_of_float (Float.round (opts.ov_rate *. opts.ov_duration /. 1e6)) in
  let total = max 1 total in
  let interval = opts.ov_duration /. float_of_int total in
  let issued = ref 0 in
  let engine = (Cluster.runtime c).Runtime.engine in
  Weaver_sim.Engine.every engine ~period:interval (fun () ->
      if !issued >= total then false
      else begin
        incr issued;
        let client = clients.(!issued mod Array.length clients) in
        let t0 = Cluster.now c in
        if Xrand.float rng 1.0 < opts.ov_read_fraction then
          Client.run_program_async client ~prog:"get_node" ~params:Progval.Null
            ~starts:[ pick () ]
            ~on_result:(fun r -> record ~t0 (Result.map ignore r))
            ()
        else begin
          let tx = Client.Tx.begin_ client in
          ignore (Client.Tx.create_edge tx ~src:(pick ()) ~dst:(pick ()));
          Client.commit_async client tx ~on_result:(record ~t0)
        end;
        true
      end);
  Cluster.run_for c (opts.ov_duration +. opts.ov_drain);
  let cnt = Cluster.counters c in
  let rt = Cluster.runtime c in
  let offered = !issued in
  let goodput = float_of_int !ok /. (opts.ov_duration /. 1e6) in
  let shed_rate =
    if offered = 0 then 0.0 else float_of_int !shed /. float_of_int offered
  in
  {
    v_flow = opts.ov_flow;
    v_seed = opts.ov_seed;
    v_rate = opts.ov_rate;
    v_offered = offered;
    v_ok = !ok;
    v_timeout = !timeouts;
    v_shed = !shed;
    v_other_err = !other;
    v_goodput = goodput;
    v_p50 = Stats.percentile latencies 50.0;
    v_p99 = Stats.percentile latencies 99.0;
    v_shed_rate = shed_rate;
    v_shed_queue = cnt.Runtime.shed_queue_full;
    v_shed_deadline = cnt.Runtime.shed_deadline;
    v_shed_credit = cnt.Runtime.shed_credit;
    v_credit_msgs = cnt.Runtime.credit_msgs;
    v_nop_msgs = cnt.Runtime.nop_msgs;
    v_heartbeats = cnt.Runtime.heartbeat_msgs;
    v_retries = cnt.Runtime.client_retries;
    v_fingerprint =
      ( !ok,
        !timeouts,
        !shed,
        cnt.Runtime.tx_committed,
        Weaver_sim.Net.messages_sent rt.Runtime.net,
        cnt.Runtime.nop_msgs );
  }

let table sweep =
  let row mult tag r =
    Printf.sprintf "%-6.2f %-5s %9d %9d %8d %8d %8.0f %10.1f %10.1f %9.1f\n" mult tag r.v_offered
      r.v_ok r.v_shed r.v_timeout r.v_goodput r.v_p50 r.v_p99 (100.0 *. r.v_shed_rate)
  in
  String.concat ""
    (Printf.sprintf "%-6s %-5s %9s %9s %8s %8s %8s %10s %10s %9s\n" "load" "arm" "offered" "ok"
       "shed" "timeout" "goodput" "p50 us" "p99 us" "shed%"
    :: List.concat_map (fun (mult, off, on_) -> [ row mult "off" off; row mult "on" on_ ]) sweep)

(* canonical-order JSON, hand-rolled like the other workload reporters:
   byte determinism of the rendering is part of the contract *)
let to_json r =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"flow\": %b, \"seed\": %d, \"rate_rps\": %.0f" r.v_flow r.v_seed r.v_rate;
  add ", \"offered\": %d, \"ok\": %d, \"timeout\": %d, \"shed\": %d, \"other_err\": %d"
    r.v_offered r.v_ok r.v_timeout r.v_shed r.v_other_err;
  add ", \"goodput_rps\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f" r.v_goodput
    r.v_p50 r.v_p99;
  add ", \"shed_rate\": %.4f" r.v_shed_rate;
  add ", \"shed_queue\": %d, \"shed_deadline\": %d, \"shed_credit\": %d"
    r.v_shed_queue r.v_shed_deadline r.v_shed_credit;
  add ", \"credit_msgs\": %d, \"nop_msgs\": %d, \"heartbeats\": %d, \"retries\": %d"
    r.v_credit_msgs r.v_nop_msgs r.v_heartbeats r.v_retries;
  add "}";
  Buffer.contents b
