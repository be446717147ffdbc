open Weaver_core
module Stats = Weaver_util.Stats

type opts = {
  ct_seed : int;
  ct_theta : float;
  ct_nonblocking : bool;
  ct_per_writer : int;
}

let default_opts =
  { ct_seed = 7; ct_theta = 0.0; ct_nonblocking = true; ct_per_writer = 40 }

let quick_opts = { ct_seed = 42; ct_theta = 0.6; ct_nonblocking = true; ct_per_writer = 20 }

type result = {
  cr_committed : int;
  cr_aborted : int;
  cr_consults : int;
  cr_batched : int;
  cr_consults_per_tx : float;
  cr_p50_apply : float;
  cr_p99_apply : float;
  cr_p99_ack : float;
  cr_fingerprint : int * int * int * int * int * int;
}

let n_keys = 16
let writers = 9

let run opts =
  let seed = opts.ct_seed in
  let c =
    Scenario.cluster
      {
        Config.default with
        Config.seed;
        Config.n_gatekeepers = 3;
        Config.n_shards = 1;
        Config.tau = 50_000.0;
        Config.nop_period = 400.0;
        Config.oracle_nonblocking = opts.ct_nonblocking;
      }
  in
  let key = Printf.sprintf "k%d" in
  Scenario.create_vertices (Cluster.client c) (List.init n_keys key);
  let ack = Stats.create () in
  let done_writers =
    Scenario.writers c ~pin:true ~writers
      ~seed:(fun i -> seed + (1_000 * (i + 1)))
      ~continue:(fun committed -> committed < opts.ct_per_writer)
      ~pick:(fun rng -> Weaver_util.Xrand.zipf rng ~n:n_keys ~theta:opts.ct_theta)
      ~vid:key
      ~on_commit:(fun _ latency -> Stats.add ack latency)
      ()
  in
  Scenario.drain c done_writers ~writers ~label:"contention";
  Cluster.run_for c 50_000.0;
  let ctr = Cluster.counters c in
  let apply =
    Option.value ~default:(Stats.create ())
      (List.assoc_opt "shard.queue_wait" (Weaver_obs.Metrics.reservoirs (Cluster.metrics c)))
  in
  {
    cr_committed = ctr.Runtime.tx_committed;
    cr_aborted = ctr.Runtime.tx_aborted;
    cr_consults = ctr.Runtime.shard_oracle_consults;
    cr_batched = ctr.Runtime.shard_oracle_batched;
    cr_consults_per_tx =
      float_of_int ctr.Runtime.shard_oracle_consults
      /. float_of_int (max 1 ctr.Runtime.tx_committed);
    cr_p50_apply = Stats.percentile apply 50.0;
    cr_p99_apply = Stats.percentile apply 99.0;
    cr_p99_ack = Stats.percentile ack 99.0;
    cr_fingerprint =
      ( ctr.Runtime.tx_committed,
        ctr.Runtime.tx_aborted,
        ctr.Runtime.shard_oracle_consults,
        ctr.Runtime.shard_oracle_batched,
        Weaver_sim.Net.messages_sent (Cluster.runtime c).Runtime.net,
        ctr.Runtime.nop_msgs );
  }

let table sweep =
  let row theta tag r =
    Printf.sprintf "%-6.1f %-12s %10d %9d %8d %12.3f %13.1f %13.1f %12.1f\n" theta tag
      r.cr_committed r.cr_consults r.cr_batched r.cr_consults_per_tx r.cr_p50_apply
      r.cr_p99_apply r.cr_p99_ack
  in
  String.concat ""
    (Printf.sprintf "%-6s %-12s %10s %9s %8s %12s %13s %13s %12s\n" "theta" "arm" "committed"
       "consults" "batched" "consults/tx" "p50 apply us" "p99 apply us" "p99 ack us"
    :: List.concat_map
         (fun (theta, bl, nb) -> [ row theta "blocking" bl; row theta "nonblocking" nb ])
         sweep)

let to_json r =
  Printf.sprintf
    "{\"committed\": %d, \"aborted\": %d, \"consults\": %d, \"batched\": %d, \"consults_per_committed_tx\": %.4f, \"p50_commit_apply_us\": %.1f, \"p99_commit_apply_us\": %.1f, \"p99_commit_ack_us\": %.1f}"
    r.cr_committed r.cr_aborted r.cr_consults r.cr_batched r.cr_consults_per_tx
    r.cr_p50_apply r.cr_p99_apply r.cr_p99_ack
