(* The host's speed over a run, followed with a fixed reference kernel.

   The benchmark's host shares its cores with other tenants. Their load
   slows everything the benchmark runs, by up to about half, in phases
   that last from seconds to many minutes: longer than a run. So the gated
   time figures are scaled to the host's speed. Each timing is divided by
   how much slower than [nominal] the kernel ran around the moment it was
   taken.

   The kernel is OCaml standard-library work (string maps, sorting,
   hashing): allocation, pointer chasing and integer work, like the
   engine's, and none of ppfx's code, so no change to the program can
   speed it up or slow it down. It runs in a child process of its own (the
   same executable, started with [child_flag]), so the program's heap and
   collector do not touch it, and only while the benchmark waits for it,
   never during a timed operation. *)

let child_flag = "--probe-child"

module Smap = Map.Make (String)

let kernel () =
  let n = 2000 in
  let keys = Array.init n (fun i -> string_of_int ((i * 7919) mod 10007)) in
  let m = Array.fold_left (fun m k -> Smap.add k (String.length k) m) Smap.empty keys in
  let found = Array.fold_left (fun acc k -> acc + Smap.find k m) 0 keys in
  let sorted = List.sort compare (Array.to_list keys) in
  let h = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace h (Hashtbl.hash k land 1023) k) sorted;
  ignore (Sys.opaque_identity (found + Hashtbl.length h))

(* The child: one kernel run per byte read, answered with its duration;
   it exits when the benchmark closes the pipe. *)
let serve () =
  let rec loop () =
    match input_char stdin with
    | exception End_of_file -> ()
    | _ ->
      let t0 = Unix.gettimeofday () in
      kernel ();
      Printf.printf "%.9f\n%!" (Unix.gettimeofday () -. t0);
      loop ()
  in
  loop ()

(* Any executable that links the benchmark serves as the child. *)
let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = child_flag then begin
    serve ();
    exit 0
  end

(* The kernel's time on the reference host (a 2-vCPU Intel Xeon virtual
   machine) in its fast phases. Scaled figures read as seconds of that
   host at that speed. *)
let nominal = 0.00217

type child = { pid : int; requests : out_channel; answers : in_channel }

let child : child option ref = ref None

(* Kernel timings of this run: when each was asked for and how long it
   took, newest first. *)
let samples : (float * float) list ref = ref []
let last = ref 0.0

let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () and ans_r, ans_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; child_flag |] req_r ans_w
      Unix.stderr
  in
  Unix.close req_r;
  Unix.close ans_w;
  child :=
    Some
      { pid; requests = Unix.out_channel_of_descr req_w; answers = Unix.in_channel_of_descr ans_r };
  samples := [];
  last := 0.0

(* Close the child's pipe and wait until it has exited. *)
let stop () =
  Option.iter
    (fun c ->
      child := None;
      close_out_noerr c.requests;
      close_in_noerr c.answers;
      ignore (Unix.waitpid [] c.pid : int * Unix.process_status))
    !child

(* Time the kernel about every [interval] seconds. Called between
   operations; after a long operation it catches up with a burst of up to
   ten runs. *)
let interval = 0.1

let tick () =
  Option.iter
    (fun c ->
      let now = Unix.gettimeofday () in
      let due = min 10 (int_of_float ((now -. !last) /. interval)) in
      for _ = 1 to due do
        let at = Unix.gettimeofday () in
        output_char c.requests 'k';
        flush c.requests;
        samples := (at, float_of_string (input_line c.answers)) :: !samples
      done;
      if due > 0 then last := Unix.gettimeofday ())
    !child

(* Kernel runs within [window] seconds of a moment speak for it. *)
let window = 2.0

(* How much slower than nominal the host ran at [t]: the median kernel
   time within [window] of [t], or of the nearest run when none is that
   close, over [nominal]; 1 when the kernel never ran. *)
let slowdown t =
  let dist (at, _) = Float.abs (at -. t) in
  match List.filter (fun s -> dist s <= window) !samples, !samples with
  | [], [] -> 1.0
  | [], s :: rest ->
    snd (List.fold_left (fun a b -> if dist b < dist a then b else a) s rest) /. nominal
  | near, _ -> Stats.median (List.map snd near) /. nominal
