(* Runs every workload of the benchmark at tiny scale, untraced and
   traced, and checks that each answers correctly and reports every
   metric BENCHMARK.json declares. *)

open Perfbench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let occurrences sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else go (i + 1) (if String.sub s i n = sub then acc + 1 else acc)
  in
  go 0 0

let () =
  let json = read_file "../../BENCHMARK.json" in
  let declared = Spec.end_to_end @ Spec.per_layer in
  List.iter
    (fun (name, unit_) ->
      check
        (Printf.sprintf "BENCHMARK.json declares %s in %s" name unit_)
        (occurrences (Printf.sprintf "{\"name\": %S, \"unit\": %S" name unit_) json = 1))
    declared;
  check "BENCHMARK.json declares no other metric"
    (occurrences "\"unit\":" json = List.length declared);
  List.iter
    (fun (w, _) ->
      check ("BENCHMARK.json names workload " ^ w) (occurrences (Printf.sprintf "{\"name\": %S" w) json = 1);
      List.iter
        (fun trace ->
          let cfg =
            { Common.seed = 3; seconds = 0.5; trace; smoke = true; dir = "smoke-" ^ w }
          in
          let o, metrics, problems, correct = Cli.run w cfg in
          let label = Printf.sprintf "%s (trace %b)" w trace in
          List.iter (fun p -> Printf.printf "%s: %s\n" label p) problems;
          check (label ^ " is correct") correct;
          check (label ^ " attempted operations") (o.Common.attempted > 0);
          check (label ^ " reports every declared metric")
            (List.length metrics
             = List.length (if trace then Spec.per_layer else Spec.end_to_end));
          if not trace then
            check (label ^ " end-to-end metrics are positive")
              (List.for_all (fun (_, v, _) -> v > 0.0) metrics))
        [ false; true ])
    Cli.workloads;
  if !failures > 0 then exit 1;
  print_endline "perfbench smoke: ok"
