(* Benchmark harness entry point.

   With no arguments, runs every experiment (each paper table and figure,
   then the ablations, then the Bechamel microbenchmarks). With arguments,
   runs only the named experiments: e.g.
     dune exec bench/main.exe -- fig7 fig14
   Use `list` to see the available names. *)

let () =
  let names = List.map fst Experiments.all in
  match Array.to_list Sys.argv with
  | _ :: [] ->
      List.iter (fun (_, f) -> f ()) Experiments.all;
      Micro.run ()
  | _ :: [ "list" ] -> List.iter print_endline (names @ [ "micro"; "speed"; "gc_scaling" ])
  | _ :: args ->
      List.iter
        (fun arg ->
          if arg = "micro" then Micro.run ()
          else if arg = "speed" then Speed.run ()
          else if arg = "gc_scaling" then Speed.gc_scaling ()
          else
            match List.assoc_opt arg Experiments.all with
            | Some f -> f ()
            | None ->
                Printf.eprintf "unknown experiment %S (try: %s)\n" arg
                  (String.concat " " (names @ [ "micro"; "speed"; "gc_scaling" ]));
                exit 1)
        args
  | [] -> assert false
