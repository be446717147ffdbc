(* Tests for read-only shard replicas (§6.4): replication stream,
   eventual convergence, weak reads, and observable staleness. *)

open Weaver_core
module Programs = Weaver_programs.Std_programs

let boot cfg =
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  c

let mk_cluster ?(replicas = 1) () = boot { Config.default with Config.read_replicas = replicas }

let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

let test_replication_stream_converges () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"r1" ());
  ignore (Client.Tx.create_vertex tx ~id:"r2" ());
  ignore (Client.Tx.create_edge tx ~src:"r1" ~dst:"r2");
  ok (Client.commit client tx);
  let shard = Cluster.shard_of_vertex c "r1" in
  (* at commit time the replica may not have applied yet — that is the
     staleness window; primaries have the write as soon as they apply *)
  Cluster.run_for c 50_000.0;
  (match Cluster.replica_vertex c ~shard ~replica:0 "r1" with
  | Some v -> Alcotest.(check int) "replica has the edge" 1 (Array.length v.Weaver_graph.Mgraph.out)
  | None -> Alcotest.fail "replica missing r1");
  Alcotest.(check bool) "stream counted" true
    (Cluster.replica_applied c ~shard ~replica:0 >= 1)

let test_staleness_window_observable () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"sw" ());
  ok (Client.commit client tx);
  Cluster.run_for c 20_000.0;
  (* second write: the primary applies it one replication hop before the
     replica does — advance the clock in tiny steps to land inside that
     window *)
  let shard = Cluster.shard_of_vertex c "sw" in
  let prop_of vo =
    match vo with
    | Some v ->
        Array.exists
          (fun (p : Weaver_graph.Mgraph.prop) -> p.Weaver_graph.Mgraph.pval = "new")
          v.Weaver_graph.Mgraph.v_props
    | None -> false
  in
  let tx = Client.Tx.begin_ client in
  Client.Tx.set_vertex_prop tx ~vid:"sw" ~key:"v" ~value:"new";
  Client.commit_async client tx ~on_result:(fun _ -> ());
  let budget = ref 100_000 in
  while (not (prop_of (Cluster.shard_vertex c ~shard "sw"))) && !budget > 0 do
    decr budget;
    Cluster.run_for c 10.0
  done;
  Alcotest.(check bool) "primary applied" true
    (prop_of (Cluster.shard_vertex c ~shard "sw"));
  Alcotest.(check bool) "replica still stale" false
    (prop_of (Cluster.replica_vertex c ~shard ~replica:0 "sw"));
  (* ... and converges *)
  Cluster.run_for c 50_000.0;
  Alcotest.(check bool) "replica converged" true
    (prop_of (Cluster.replica_vertex c ~shard ~replica:0 "sw"))

let test_weak_read_serves_from_replica () =
  let c = mk_cluster () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"wk" ());
  ok (Client.commit client tx);
  Cluster.run_for c 50_000.0;
  let v0 = (Cluster.counters c).Runtime.vertices_read in
  match
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "wk" ]
      ~consistency:`Weak ()
  with
  | Ok (Progval.List [ s ]) ->
      Alcotest.(check string) "vid" "wk" (Progval.to_str (Progval.assoc "vid" s));
      Alcotest.(check bool) "read happened somewhere" true
        ((Cluster.counters c).Runtime.vertices_read > v0)
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "weak read: %s" e

let test_weak_traversal_across_replicas () =
  let c = mk_cluster ~replicas:2 () in
  let client = Cluster.client c in
  let g = Weaver_workloads.Graphgen.chain ~prefix:"wt" ~vertices:20 () in
  Weaver_workloads.Loader.fast_install c g;
  Cluster.run_for c 20_000.0;
  match
    Client.run_program client ~prog:"reachable"
      ~params:(Progval.Assoc [ ("target", Progval.Str "wt19") ])
      ~starts:[ "wt0" ] ~consistency:`Weak ()
  with
  | Ok (Progval.Bool b) -> Alcotest.(check bool) "weak traversal works" true b
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "weak traversal: %s" e

let test_weak_without_replicas_falls_back () =
  (* a deployment without replicas serves weak reads from the primaries *)
  let c = mk_cluster ~replicas:0 () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"fb" ());
  ok (Client.commit client tx);
  match
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "fb" ]
      ~consistency:`Weak ()
  with
  | Ok (Progval.List [ _ ]) -> ()
  | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "fallback: %s" e

let test_strong_reads_unaffected_by_replicas () =
  let c = mk_cluster ~replicas:2 () in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"st" ());
  ok (Client.commit client tx);
  (* a strong read immediately after commit always sees the write *)
  match
    Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "st" ] ()
  with
  | Ok (Progval.List [ _ ]) -> ()
  | Ok v -> Alcotest.failf "strong read missed the write: %s" (Progval.to_string v)
  | Error e -> Alcotest.failf "%s" e

(* Regression: a write committed while a replica's primary is down never
   reached the replica. The gatekeeper commits it to the store and its
   Shard_tx dies at the dead primary; the replacement reloads the store at
   the epoch barrier, but the replica used to keep serving its pre-crash
   copy forever, so weak reads alternating over primary and replica
   disagreed. The barrier now marks the replica dirty and the primary
   reseeds it at the next watermark. *)
let test_replica_converges_after_barrier () =
  let c =
    boot { Config.default with Config.n_shards = 2; read_replicas = 1; seed = 13 }
  in
  let client = Cluster.client c in
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"x" ());
  ok (Client.commit client tx);
  Cluster.run_for c 20_000.0;
  let shard = Cluster.shard_of_vertex c "x" in
  let set key =
    let tx = Client.Tx.begin_ client in
    Client.Tx.set_vertex_prop tx ~vid:"x" ~key ~value:"1";
    ok (Client.commit client tx)
  in
  Cluster.kill_shard c shard;
  set "k";
  Cluster.run_for c 400_000.0;
  Alcotest.(check int) "replaced at a barrier" 1 (Cluster.counters c).Runtime.recoveries;
  set "k2";
  Cluster.run_for c 400_000.0;
  let has key = function
    | Some v ->
        Array.exists
          (fun (p : Weaver_graph.Mgraph.prop) -> p.Weaver_graph.Mgraph.pkey = key)
          v.Weaver_graph.Mgraph.v_props
    | None -> false
  in
  Alcotest.(check bool) "primary has k" true (has "k" (Cluster.shard_vertex c ~shard "x"));
  Alcotest.(check bool) "replica has k2" true
    (has "k2" (Cluster.replica_vertex c ~shard ~replica:0 "x"));
  Alcotest.(check bool) "replica has k" true
    (has "k" (Cluster.replica_vertex c ~shard ~replica:0 "x"));
  for i = 1 to 7 do
    match
      Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "x" ]
        ~consistency:`Weak ()
    with
    | Ok (Progval.List [ s ]) ->
        Alcotest.(check bool)
          (Printf.sprintf "weak read %d sees k" i)
          true
          (Progval.assoc "k" (Progval.assoc "props" s) <> Progval.Null)
    | Ok v -> Alcotest.failf "unexpected %s" (Progval.to_string v)
    | Error e -> Alcotest.failf "weak read: %s" e
  done

let suites =
  [
    ( "replica",
      [
        Alcotest.test_case "stream converges" `Quick test_replication_stream_converges;
        Alcotest.test_case "staleness observable" `Quick test_staleness_window_observable;
        Alcotest.test_case "weak read" `Quick test_weak_read_serves_from_replica;
        Alcotest.test_case "weak traversal" `Quick test_weak_traversal_across_replicas;
        Alcotest.test_case "weak without replicas" `Quick test_weak_without_replicas_falls_back;
        Alcotest.test_case "strong unaffected" `Quick test_strong_reads_unaffected_by_replicas;
        Alcotest.test_case "converges after barrier" `Quick
          test_replica_converges_after_barrier;
      ] );
  ]
