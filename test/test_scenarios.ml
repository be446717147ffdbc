(* Tests for the experiment scenarios the bench and the command line share
   (lib/workloads): each reruns to the same fingerprint at tiny options,
   and the contention quick-look at the command line's defaults shows the
   non-blocking refinement path consulting the oracle less than the
   blocking one. *)

open Weaver_workloads

let same name run fingerprint =
  let a = fingerprint (run ()) and b = fingerprint (run ()) in
  Alcotest.(check bool) (name ^ ": rerun gives the same fingerprint") true (a = b)

let test_sweep () =
  same "sweep"
    (fun () -> Sweepbench.run { Sweepbench.sw_seed = 3 })
    (fun r -> r.Sweepbench.sw_fingerprint)

let test_contention () =
  same "contention"
    (fun () ->
      Contentionbench.run { Contentionbench.quick_opts with Contentionbench.ct_per_writer = 5 })
    (fun r -> r.Contentionbench.cr_fingerprint)

let test_snapshot () =
  same "snapshot"
    (fun () ->
      Snapshotbench.run { Snapshotbench.default_opts with Snapshotbench.sn_window = 20_000.0 })
    (fun r -> r.Snapshotbench.sr_fingerprint)

let test_rebalance () =
  same "rebalance"
    (fun () -> Rebalancebench.run Rebalancebench.default_opts)
    (fun r -> (r.Rebalancebench.rb_fingerprint, r.Rebalancebench.rb_move_log))

let test_replication () =
  same "replication"
    (fun () ->
      Replbench.run
        { Replbench.default_opts with Replbench.rl_readers = 6; rl_duration = 20_000.0 })
    (fun r -> r.Replbench.rp_fingerprint)

let test_mixed () =
  same "mixed"
    (fun () -> Mixedbench.run { Mixedbench.mx_txs = 5; mx_progs = 2 })
    (fun r -> (r.Mixedbench.mx_fingerprint, r.Mixedbench.mx_tx_traces))

(* The quick-look shows the refinement path only if concurrent stamps
   reach the shard undecided; with four shards and two gatekeepers they
   did not, and both arms consulted the oracle equally often. *)
let test_contention_quick_look () =
  let arm nonblocking =
    Contentionbench.run
      { Contentionbench.quick_opts with Contentionbench.ct_nonblocking = nonblocking }
  in
  let blocking = arm false and nonblocking = arm true in
  Alcotest.(check bool) "blocking arm consults the oracle" true
    (blocking.Contentionbench.cr_consults > 0);
  Alcotest.(check bool) "non-blocking consults per committed tx strictly lower" true
    (nonblocking.Contentionbench.cr_consults_per_tx
    < blocking.Contentionbench.cr_consults_per_tx)

let suites =
  [
    ( "scenarios",
      [
        Alcotest.test_case "sweep deterministic" `Quick test_sweep;
        Alcotest.test_case "contention deterministic" `Quick test_contention;
        Alcotest.test_case "snapshot deterministic" `Quick test_snapshot;
        Alcotest.test_case "rebalance deterministic" `Quick test_rebalance;
        Alcotest.test_case "replication deterministic" `Quick test_replication;
        Alcotest.test_case "mixed deterministic" `Quick test_mixed;
        Alcotest.test_case "contention quick-look shows refinement" `Quick
          test_contention_quick_look;
      ] );
  ]
