(* Command line: run one workload and print its figures, then a one-line
   JSON result with the metrics BENCHMARK.json declares. *)

open Common

let workloads =
  [ "warm-xpathmark", Warm.run; "cold-xpathmark", Cold.run; "rw-durable", Rw.run ]

let usage =
  "main.exe --workload (warm-xpathmark|cold-xpathmark|rw-durable|all) --seed N \
   --seconds S --trace (0|1) [--smoke] [--dir DIR]"

let parse argv =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let smoke = ref false and dir = ref ".perfbench-data" in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | "--dir" :: d :: rest -> dir := d; go rest
    | arg :: _ -> failwith ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list argv));
  match !workload with
  | Some w when w = "all" || List.mem_assoc w workloads ->
    (w, { seed = !seed; seconds = !seconds; trace = !trace; smoke = !smoke; dir = !dir })
  | _ -> failwith "--workload names no workload"

(* The declared metrics of an outcome, in declaration order, with any
   missing or non-finite one named as a problem. *)
let declared_metrics ~trace (o : outcome) =
  let declared = if trace then Spec.per_layer else Spec.end_to_end in
  List.fold_right
    (fun (name, unit_) (ms, problems) ->
      match List.find_opt (fun f -> f.name = name) o.figures with
      | Some f when Float.is_finite f.value && f.unit_ = unit_ -> ((name, f.value, unit_) :: ms, problems)
      | Some _ when not trace -> (ms, ("end-to-end metric " ^ name ^ " not measured") :: problems)
      | None when not trace -> (ms, ("end-to-end metric " ^ name ^ " missing") :: problems)
      | _ -> ((name, 0.0, unit_) :: ms, problems))
    declared ([], [])

let result_line ~correct (o : outcome) metrics =
  let m =
    List.map
      (fun (name, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct o.attempted o.failed (String.concat ", " m)

let run name cfg =
  ensure_dir cfg.dir;
  if not cfg.trace then Probe.start ();
  let o = Fun.protect ~finally:Probe.stop (fun () -> (List.assoc name workloads) cfg) in
  let metrics, missing = declared_metrics ~trace:cfg.trace o in
  let problems = o.problems @ missing in
  let correct = o.failed = 0 && problems = [] in
  (o, metrics, problems, correct)

(* Print one workload's figures, then its result line; true when
   correct. *)
let report name cfg =
  let o, metrics, problems, correct = run name cfg in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d%s\n" name cfg.seed cfg.seconds
    (if cfg.trace then 1 else 0) (if cfg.smoke then "  (smoke)" else "");
  List.iter (fun f -> Printf.printf "  %-32s %14.6f %s\n" f.name f.value f.unit_) o.figures;
  Printf.printf "  %-32s %14.6f ratio  (%d of %d operations)\n" "failed_ratio"
    (Stats.ratio (float_of_int o.failed) (float_of_int o.attempted))
    o.failed o.attempted;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) o.notes;
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) problems;
  print_endline (result_line ~correct o metrics);
  correct

(* [--workload all] runs the workloads one after another. *)
let main argv =
  match parse argv with
  | exception Failure msg ->
    prerr_endline (msg ^ "\nusage: " ^ usage);
    2
  | name, cfg ->
    let names = if name = "all" then List.map fst workloads else [ name ] in
    if List.for_all Fun.id (List.map (fun n -> report n cfg) names) then 0 else 1
