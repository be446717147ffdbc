open Weaver_core

type opts = { re_seed : int; re_rebalance : bool }

let default_opts = { re_seed = 19; re_rebalance = true }

type result = {
  rb_committed : int;
  rb_aborted : int;
  rb_skew_pre : float;
  rb_skew_spike : float;
  rb_skew_post : float;
  rb_goodput : float;
  rb_rounds : int;
  rb_moves : int;
  rb_skipped : int;
  rb_move_log : Balancer.move list;
  rb_fingerprint : int * int * int * int * int;
}

let n_keys = 128
let key = Printf.sprintf "e%03d"
let writers = 8
let per_writer = 120

(* one phase: closed-loop writers uniform over the hot set *)
let phase c ~seed ~hot =
  Scenario.writers c ~writers
    ~seed:(fun i -> seed + (101 * (i + 1)))
    ~continue:(fun committed -> committed < per_writer)
    ~pick:(fun rng -> Weaver_util.Xrand.int rng (Array.length hot))
    ~vid:(Array.get hot) ()

let run opts =
  let seed = opts.re_seed in
  let c =
    Scenario.cluster
      {
        Config.default with
        Config.seed;
        Config.n_gatekeepers = 2;
        Config.n_shards = 4;
        Config.enable_heat = true;
        Config.enable_rebalance = opts.re_rebalance;
        Config.rebalance_period = 10_000.0;
      }
  in
  Scenario.create_vertices (Cluster.client c) (List.init n_keys key);
  Cluster.run_for c 5_000.0;
  (* hot sets by *initial* residency: phase A hammers shard 0's vertices,
     phase B shard 1's (untouched by phase A's moves, so the flip really
     does land the load on one cold shard) *)
  let hot_set s =
    let residents =
      List.filter (fun v -> Cluster.shard_of_vertex c v = s) (List.init n_keys key)
    in
    Array.of_list (List.filteri (fun i _ -> i < 16) residents)
  in
  let hot_a = hot_set 0 and hot_b = hot_set 1 in
  let h = Option.get (Cluster.heat c) in
  let skew () = Weaver_obs.Heat.skew h ~now:(Cluster.now c) in
  let t0 = Cluster.now c in
  let done_a = phase c ~seed ~hot:hot_a in
  Scenario.drain c done_a ~writers ~label:"rebalance phase A";
  let skew_pre = skew () in
  let done_b = phase c ~seed:(seed + 7) ~hot:hot_b in
  Cluster.run_for c 5_000.0;
  let skew_spike = skew () in
  Scenario.drain c done_b ~writers ~label:"rebalance phase B";
  let skew_post = skew () in
  let t1 = Cluster.now c in
  let ctr = Cluster.counters c in
  {
    rb_committed = ctr.Runtime.tx_committed;
    rb_aborted = ctr.Runtime.tx_aborted;
    rb_skew_pre = skew_pre;
    rb_skew_spike = skew_spike;
    rb_skew_post = skew_post;
    rb_goodput = float_of_int (2 * writers * per_writer) /. (t1 -. t0) *. 1.0e6;
    rb_rounds = ctr.Runtime.rebal_rounds;
    rb_moves = ctr.Runtime.rebal_moves;
    rb_skipped = ctr.Runtime.rebal_skipped;
    rb_move_log = Option.fold ~none:[] ~some:Balancer.move_log (Cluster.balancer c);
    rb_fingerprint =
      ( ctr.Runtime.tx_committed,
        ctr.Runtime.tx_aborted,
        ctr.Runtime.oracle_consults,
        Weaver_sim.Net.messages_sent (Cluster.runtime c).Runtime.net,
        ctr.Runtime.nop_msgs );
  }

let table arms =
  String.concat ""
    (Printf.sprintf "%-4s %10s %9s %10s %10s %10s %7s %7s\n" "arm" "committed" "goodput"
       "skew pre" "spike" "post" "moves" "skips"
    :: List.map
         (fun (tag, r) ->
           Printf.sprintf "%-4s %10d %9.0f %10.3f %10.3f %10.3f %7d %7d\n" tag r.rb_committed
             r.rb_goodput r.rb_skew_pre r.rb_skew_spike r.rb_skew_post r.rb_moves r.rb_skipped)
         arms)

let to_json r =
  let move m =
    Printf.sprintf "{\"t_us\": %.0f, \"vid\": \"%s\", \"from\": %d, \"to\": %d}"
      m.Balancer.mv_time m.Balancer.mv_vid m.Balancer.mv_from m.Balancer.mv_to
  in
  Printf.sprintf
    "{\"committed\": %d, \"aborted\": %d, \"goodput_per_s\": %.0f, \
     \"skew_pre_flip\": %.4f, \"skew_spike\": %.4f, \"skew_post_flip\": %.4f, \
     \"rounds\": %d, \"moves\": %d, \"skipped\": %d, \"move_log\": [%s]}"
    r.rb_committed r.rb_aborted r.rb_goodput r.rb_skew_pre r.rb_skew_spike
    r.rb_skew_post r.rb_rounds r.rb_moves r.rb_skipped
    (String.concat ", " (List.map move r.rb_move_log))
