open Weaver_core
module Xrand = Weaver_util.Xrand
module Stats = Weaver_util.Stats

type opts = { mx_txs : int; mx_progs : int }

let default_opts = { mx_txs = 200; mx_progs = 50 }

type result = {
  mx_cluster : Cluster.t;
  mx_tx_traces : int list;
  mx_prog_traces : int list;
  mx_fingerprint : int * int * int;
}

let run opts =
  let rng = Xrand.create ~seed:11 () in
  let c, vertices =
    Scenario.install
      {
        Config.default with
        Config.n_gatekeepers = 2;
        Config.n_shards = 4;
        Config.enable_tracing = true;
        Config.trace_capacity = 4096;
      }
      (Graphgen.uniform ~rng ~prefix:"bd" ~vertices:500 ~edges:2_000 ())
  in
  let client = Cluster.client c in
  let tx_traces =
    List.init opts.mx_txs (fun i ->
        let tx = Client.Tx.begin_ client in
        let src = Xrand.pick rng vertices in
        ignore (Client.Tx.create_edge tx ~src ~dst:(Xrand.pick rng vertices));
        Client.Tx.set_vertex_prop tx ~vid:src ~key:"n" ~value:(string_of_int (i + 1));
        ignore (Client.commit client tx);
        Client.last_request_id client)
  in
  let prog_traces =
    List.init opts.mx_progs (fun _ ->
        ignore
          (Client.run_program client ~prog:"get_edges" ~params:Progval.Null
             ~starts:[ Xrand.pick rng vertices ] ());
        Client.last_request_id client)
  in
  Cluster.run_for c 10_000.0;
  let ctr = Cluster.counters c in
  {
    mx_cluster = c;
    mx_tx_traces = tx_traces;
    mx_prog_traces = prog_traces;
    mx_fingerprint =
      ( ctr.Runtime.tx_committed,
        ctr.Runtime.progs_completed,
        Weaver_sim.Net.messages_sent (Cluster.runtime c).Runtime.net );
  }

let phases c =
  let reservoirs = Weaver_obs.Metrics.reservoirs (Cluster.metrics c) in
  List.map
    (fun (label, name) ->
      match List.assoc_opt name reservoirs with
      | None -> (label, 0, 0.0, 0.0)
      | Some s -> (label, Stats.count s, Stats.percentile s 50.0, Stats.percentile s 99.0))
    [
      ("admission", "gk.admission_wait");
      ("store", "gk.store_rtt");
      ("shard_queue", "shard.queue_wait");
      ("oracle", "shard.oracle_wait");
      ("tx_service", "gk.tx_service");
      ("prog_service", "gk.prog_service");
    ]

let phase_table c =
  String.concat ""
    (Printf.sprintf "%-14s %10s %10s %8s\n" "phase" "p50 (us)" "p99 (us)" "n"
    :: List.map
         (function
           | label, 0, _, _ -> Printf.sprintf "%-14s %10s %10s %8d\n" label "-" "-" 0
           | label, n, p50, p99 -> Printf.sprintf "%-14s %10.1f %10.1f %8d\n" label p50 p99 n)
         (phases c))
