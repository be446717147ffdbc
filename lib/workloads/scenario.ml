open Weaver_core
module Xrand = Weaver_util.Xrand

let cluster cfg =
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  c

let install cfg g =
  let c = cluster cfg in
  Loader.fast_install c g;
  Cluster.run_for c 5_000.0;
  (c, Array.of_list (Graphgen.vertex_ids g))

let create_vertices client ids =
  let tx = Client.Tx.begin_ client in
  List.iter (fun id -> ignore (Client.Tx.create_vertex tx ~id ())) ids;
  match Client.commit client tx with Ok () -> () | Error e -> failwith ("setup: " ^ e)

let writers c ?(pin = false) ~writers ~seed ~continue ~pick ~vid
    ?(on_commit = fun _ _ -> ()) () =
  let gatekeepers = (Cluster.config c).Config.n_gatekeepers in
  let done_writers = ref 0 in
  for i = 0 to writers - 1 do
    let client = Cluster.client c in
    if pin then Client.set_gatekeeper client (Some (i mod gatekeepers));
    let rng = Xrand.create ~seed:(seed i) () in
    let committed = ref 0 and attempt = ref 0 in
    let rec next () =
      if continue !committed then begin
        incr attempt;
        let key = pick rng in
        let t0 = Cluster.now c in
        let tx = Client.Tx.begin_ client in
        Client.Tx.set_vertex_prop tx ~vid:(vid key) ~key:"n"
          ~value:(string_of_int !attempt);
        Client.commit_async client tx ~on_result:(fun r ->
            (match r with
            | Ok () ->
                incr committed;
                on_commit key (Cluster.now c -. t0)
            | Error _ -> ());
            next ())
      end
      else incr done_writers
    in
    next ()
  done;
  done_writers

let drain c done_writers ~writers ~label =
  let budget = ref 4_000 in
  while !done_writers < writers && !budget > 0 do
    decr budget;
    Cluster.run_for c 1_000.0
  done;
  if !done_writers < writers then failwith (label ^ ": writers stalled")
