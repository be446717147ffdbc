(* Self-tests of the benchmark's pure helpers; perfbench/run.py runs them
   before every benchmark run and refuses to measure if one fails.

     dune build ./perfbench/test_helpers.exe && ./_build/default/perfbench/test_helpers.exe *)

module H = Helpers

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let iota n = Array.init n (fun i -> float_of_int (i + 1))

(* the "at least 10 samples beyond" rule *)
let () =
  let p = Option.get (H.tail_percentile (iota 2000) ~want:99.0) in
  check "p99 of 2000 is rank 1980" (close p.H.value 1980.0 && p.H.beyond = 20 && close p.H.q 99.0);
  let p = Option.get (H.tail_percentile (iota 1000) ~want:99.0) in
  check "p99 of 1000 keeps exactly 10 beyond" (close p.H.value 990.0 && p.H.beyond = 10);
  let p = Option.get (H.tail_percentile (iota 300) ~want:99.0) in
  check "p99 of 300 lowers to rank 290" (close p.H.value 290.0 && p.H.beyond = 10);
  check "p99 of 300 reports its percentile" (close p.H.q (100.0 *. 290.0 /. 300.0));
  let p = Option.get (H.tail_percentile (iota 11) ~want:99.0) in
  check "11 samples give the minimum" (close p.H.value 1.0 && p.H.beyond = 10);
  check "10 samples give nothing" (H.tail_percentile (iota 10) ~want:99.0 = None);
  check "empty gives nothing" (H.tail_percentile [||] ~want:50.0 = None);
  let p = Option.get (H.tail_percentile [| 5.0; 1.0; 4.0; 2.0; 3.0; 9.0; 8.0; 7.0; 6.0; 10.0;
                                           11.0; 12.0; 13.0; 14.0; 15.0; 16.0; 17.0; 18.0;
                                           19.0; 20.0 |] ~want:50.0) in
  check "p50 sorts its input" (close p.H.value 10.0 && p.H.beyond = 10);
  check "median odd" (close (H.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median even" (close (H.median [ 4.0; 1.0; 2.0; 3.0 ]) 2.5)

(* self time = duration minus child coverage *)
let () =
  check "no children" (close (H.self_time ~start:0.0 ~stop:10.0 []) 10.0);
  check "disjoint children"
    (close (H.self_time ~start:0.0 ~stop:10.0 [ (1.0, 3.0); (5.0, 6.0) ]) 7.0);
  check "overlapping children count once"
    (close (H.self_time ~start:0.0 ~stop:10.0 [ (1.0, 4.0); (2.0, 5.0); (4.5, 6.0) ]) 5.0);
  check "children clipped to the parent"
    (close (H.self_time ~start:2.0 ~stop:10.0 [ (0.0, 4.0); (9.0, 12.0) ]) 5.0);
  check "full cover is zero" (close (H.self_time ~start:0.0 ~stop:10.0 [ (0.0, 10.0) ]) 0.0);
  check "nested children" (close (H.self_time ~start:0.0 ~stop:10.0 [ (1.0, 9.0); (2.0, 3.0) ]) 2.0)

(* knee detection on the rate ladder *)
let () =
  let step rate p99_us = { H.rate; p99_us; kept_pace = 1.0 } in
  let knee = H.knee ~limit_us:5000.0 ~min_pace:0.98 in
  check "all pass: top rung" (knee [ step 40.0 1000.0; step 80.0 2000.0 ] = Some 80.0);
  check "first fails: none" (knee [ step 40.0 6000.0; step 80.0 9000.0 ] = None);
  (* pressure 0.6 at 80, 1.4 at 100: crosses 1.0 half way *)
  check "interpolates between rungs"
    (close (Option.get (knee [ step 40.0 1000.0; step 80.0 3000.0; step 100.0 7000.0 ])) 90.0);
  check "unsorted input"
    (close (Option.get (knee [ step 100.0 7000.0; step 40.0 1000.0; step 80.0 3000.0 ])) 90.0);
  check "stops at the first failure"
    (close (Option.get (knee [ step 40.0 1000.0; step 60.0 7000.0; step 80.0 1000.0 ])) (160.0 /. 3.0));
  let backlog = { H.rate = 100.0; p99_us = 1000.0; kept_pace = 0.49 } in
  check "a growing backlog fails the step"
    (H.pressure ~limit_us:5000.0 ~min_pace:0.98 backlog > 1.0);
  check "infinite tail fails" (knee [ step 40.0 1000.0; step 80.0 infinity ] = Some 40.0)

(* the offline BFS reference nhop_count results are checked against *)
let () =
  (* 0 -> 1 -> 2 -> 3, 0 -> 2, 4 isolated, 3 -> 0 closes a cycle *)
  let adj = [| [ 1; 2 ]; [ 2 ]; [ 3 ]; [ 0 ]; [] |] in
  check "depth 0 is the start" (H.bfs_count adj ~start:0 ~depth:0 = 1);
  check "depth 1" (H.bfs_count adj ~start:0 ~depth:1 = 3);
  check "depth 2 via the shortcut" (H.bfs_count adj ~start:0 ~depth:2 = 4);
  check "cycle counted once" (H.bfs_count adj ~start:1 ~depth:10 = 4);
  check "isolated vertex" (H.bfs_count adj ~start:4 ~depth:3 = 1)

let () =
  if !failures > 0 then begin
    Printf.printf "%d helper checks failed\n" !failures;
    exit 1
  end
  else print_endline "helper checks passed"
