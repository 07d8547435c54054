(* Spans recorded by the benchmark around its calls into ppfx's layers.

   Spans live in memory until the run ends. A span knows its parent, so a
   layer's self time is its duration minus its children's. Spans nest
   within one domain through a domain-local stack; a server-side span
   (running in a worker domain) hangs under the client round trip that
   caused it, which works because the benchmark keeps exactly one request
   in flight. Everything here is a no-op while tracing is off. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** the operation (request) the span belongs to *)
  name : string;
  t0 : float;
  t1 : float;
}

type frame = { fid : int; ft0 : float; mutable used : float }

let enabled = Atomic.make false
let next_id = Atomic.make 1
let request = Atomic.make 0
let remote_parent = Atomic.make 0
let lock = Mutex.create ()
let spans : span list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let stack : frame list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let on () = Atomic.get enabled
let now = Unix.gettimeofday

let start () =
  Mutex.protect lock (fun () ->
      spans := [];
      Hashtbl.reset counters);
  Atomic.set enabled true

let stop () = Atomic.set enabled false

(* Start a new operation: every span recorded until the next call shares
   its id. *)
let next_request () = if on () then Atomic.incr request

let record s = Mutex.protect lock (fun () -> spans := s :: !spans)

let run_span ~parent name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let req = Atomic.get request in
  let frame = { fid = id; ft0 = now (); used = 0.0 } in
  let saved = Domain.DLS.get stack in
  Domain.DLS.set stack (frame :: saved);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set stack saved;
      record { id; parent; req; name; t0 = frame.ft0; t1 = now () })
    (fun () -> f id)

(* The innermost open span of this domain; in a server worker, which has
   none, the client round trip in flight. *)
let current_parent () =
  match Domain.DLS.get stack with f :: _ -> f.fid | [] -> Atomic.get remote_parent

let span name f =
  if on () then run_span ~parent:(current_parent ()) name (fun _ -> f ()) else f ()

(* A client round trip: spans the server opens while it is in flight
   become its children. *)
let roundtrip name f =
  if on () then
    run_span ~parent:(current_parent ()) name (fun id ->
        Atomic.set remote_parent id;
        Fun.protect ~finally:(fun () -> Atomic.set remote_parent 0) f)
  else f ()

(* A child of the innermost open span whose duration comes from a timer
   the program keeps itself (a {!Ppfx_service.Metrics} stage). Such
   children are laid end to end from the parent's start: the stages they
   stand for run one after another. *)
let child name seconds =
  if on () && seconds > 0.0 then
    match Domain.DLS.get stack with
    | [] -> ()
    | f :: _ ->
      let t0 = f.ft0 +. f.used in
      f.used <- f.used +. seconds;
      record
        { id = Atomic.fetch_and_add next_id 1; parent = f.fid;
          req = Atomic.get request; name; t0; t1 = t0 +. seconds }

let count name v =
  if on () then
    Mutex.protect lock (fun () ->
        let old = Option.value (Hashtbl.find_opt counters name) ~default:0.0 in
        Hashtbl.replace counters name (old +. v))

let counter name =
  Mutex.protect lock (fun () ->
      Option.value (Hashtbl.find_opt counters name) ~default:0.0)

let all () = Mutex.protect lock (fun () -> List.rev !spans)

type layer = { calls : int; total : float; self : float }

(* Per span name: number of spans, summed duration and summed self time
   (duration minus the durations of direct children). *)
let layers spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let old = Option.value (Hashtbl.find_opt children s.parent) ~default:0.0 in
        Hashtbl.replace children s.parent (old +. (s.t1 -. s.t0)))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:0.0 in
      let l =
        Option.value (Hashtbl.find_opt acc s.name)
          ~default:{ calls = 0; total = 0.0; self = 0.0 }
      in
      Hashtbl.replace acc s.name
        { calls = l.calls + 1; total = l.total +. d; self = l.self +. d -. kids })
    spans;
  acc

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
            s.id s.parent s.req s.name s.t0 s.t1)
        spans)
