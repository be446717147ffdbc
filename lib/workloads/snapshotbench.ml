open Weaver_core
module Stats = Weaver_util.Stats

type opts = { sn_seed : int; sn_snapshots : bool; sn_window : float }

let default_opts = { sn_seed = 11; sn_snapshots = true; sn_window = 400_000.0 }

type result = {
  sr_writes : int;
  sr_reads : int;
  sr_gced : int;
  sr_p50_read : float;
  sr_p99_read : float;
  sr_published : int;
  sr_pinned : int;
  sr_deferred : int;
  sr_fingerprint : int * int * int * int * int * int;
}

let n_vertices = 600
let vid = Printf.sprintf "s%03d"

let run opts =
  let seed = opts.sn_seed in
  let c =
    Scenario.cluster
      {
        Config.default with
        Config.seed;
        Config.n_gatekeepers = 2;
        Config.n_shards = 4;
        Config.snapshot_reads = opts.sn_snapshots;
        Config.gc_period = 5_000.0;
        Config.shard_capacity = Some 120;
      }
  in
  let setup = Cluster.client c in
  for batch = 0 to (n_vertices / 50) - 1 do
    Scenario.create_vertices setup (List.init 50 (fun k -> vid ((batch * 50) + k)))
  done;
  Cluster.run_for c 50_000.0;
  (* the analytics cut: everything below this stamp is history *)
  let at = ref (Cluster.gk_clock c 0) in
  let starts = List.init 64 (fun k -> vid (k * 9 mod n_vertices)) in
  let stop = ref false in
  let writes = ref 0 in
  ignore
    (Scenario.writers c ~pin:true ~writers:4
       ~seed:(fun w -> seed + (1_000 * (w + 1)))
       ~continue:(fun _ -> not !stop)
       ~pick:(fun rng -> Weaver_util.Xrand.int rng n_vertices)
       ~vid
       ~on_commit:(fun _ _ -> incr writes)
       ());
  let lat = Stats.create () in
  let reads = ref 0 and gced = ref 0 in
  let analyst = Cluster.client c in
  Client.set_retry_policy analyst Client.no_retry_policy;
  let rec read_next () =
    if not !stop then begin
      let t0 = Cluster.now c in
      Client.run_program_async analyst ~prog:"get_node" ~params:Progval.Null ~starts
        ~at:!at
        ~on_result:(fun r ->
          (match r with
          | Ok _ ->
              incr reads;
              Stats.add lat (Cluster.now c -. t0)
          | Error "snapshot-gced" ->
              incr gced;
              at := Cluster.gk_clock c 0
          | Error e -> failwith ("snapshot: analytics failed: " ^ e));
          read_next ())
        ()
    end
  in
  read_next ();
  Cluster.run_for c opts.sn_window;
  stop := true;
  Cluster.run_for c 50_000.0;
  let ctr = Cluster.counters c in
  {
    sr_writes = !writes;
    sr_reads = !reads;
    sr_gced = !gced;
    sr_p50_read = Stats.percentile lat 50.0;
    sr_p99_read = Stats.percentile lat 99.0;
    sr_published = ctr.Runtime.snap_published;
    sr_pinned = ctr.Runtime.snap_pinned_reads;
    sr_deferred = ctr.Runtime.snap_gc_deferred;
    sr_fingerprint =
      ( !writes,
        !reads,
        ctr.Runtime.tx_committed,
        ctr.Runtime.snap_published,
        ctr.Runtime.snap_pinned_reads,
        Weaver_sim.Net.messages_sent (Cluster.runtime c).Runtime.net );
  }

let table arms =
  String.concat ""
    (Printf.sprintf "%-4s %8s %8s %6s %12s %12s %10s %8s %9s\n" "arm" "writes" "reads" "gced"
       "p50 us" "p99 us" "published" "pinned" "deferred"
    :: List.map
         (fun (tag, r) ->
           Printf.sprintf "%-4s %8d %8d %6d %12.1f %12.1f %10d %8d %9d\n" tag r.sr_writes
             r.sr_reads r.sr_gced r.sr_p50_read r.sr_p99_read r.sr_published r.sr_pinned
             r.sr_deferred)
         arms)

let to_json r =
  Printf.sprintf
    "{\"writes\": %d, \"reads\": %d, \"cut_recaptures\": %d, \"p50_read_us\": %.1f, \"p99_read_us\": %.1f, \"snapshots_published\": %d, \"pinned_reads\": %d, \"gc_deferred\": %d}"
    r.sr_writes r.sr_reads r.sr_gced r.sr_p50_read r.sr_p99_read r.sr_published
    r.sr_pinned r.sr_deferred
