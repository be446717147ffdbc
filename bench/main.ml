(* Benchmark harness entry point.

   With no arguments, runs every experiment: the work-counter gate, each
   paper table and figure, then the ablations and feature experiments.
   With arguments, runs only the named experiments: e.g.
     dune exec bench/main.exe -- fig7 fig14
   Use `list` to see the available names. Run `work` alone or first: it
   gates allocated words as measured in a fresh process. *)

let () =
  let names = List.map fst Experiments.all in
  match Array.to_list Sys.argv with
  | _ :: [] -> List.iter (fun (_, f) -> f ()) Experiments.all
  | _ :: [ "list" ] -> List.iter print_endline names
  | _ :: args ->
      List.iter
        (fun arg ->
          match List.assoc_opt arg Experiments.all with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S (try: %s)\n" arg (String.concat " " names);
              exit 1)
        args
  | [] -> assert false
