(* Lazy DFA (subset construction with memoized transitions) over the
   Thompson NFA. Matching through the DFA costs one table lookup per
   input byte once a transition is warm, which is what makes path-filter
   regexes cheap enough to run over the whole Paths relation.

   States are keyed by their kernel — the NFA states of the closure that
   have a [Sym] out-edge — plus the two acceptance bits. The rest of a
   closure (epsilon-only states such as the chain of [Seq] entries of a
   long literal) decides nothing a DFA state needs: transitions read only
   the kernel's [Sym] edges, acceptance only the bits. Keying on the
   summary merges exactly the closures that behave identically and keeps
   the keys short.

   Anchors: begin-of-line edges are only traversable in the closure taken
   at position 0, so the automaton distinguishes the initial closure from
   later ones; end-of-line edges contribute to a per-state
   [accept_at_eol] flag checked when input is exhausted.

   [reseed] builds the search variant: the start state's closure is
   re-injected before every transition, giving unanchored-substring
   semantics without restarting the scan. *)

type state = {
  kernel : int list;  (** sorted NFA states with a [Sym] out-edge *)
  trans : int array;  (** by byte; -1 = not yet computed *)
  accept_now : bool;
  accept_at_eol : bool;
}

module Key = struct
  type t = int list * bool * bool

  let equal ((k1, n1, e1) : t) (k2, n2, e2) =
    Bool.equal n1 n2 && Bool.equal e1 e2 && List.equal Int.equal k1 k2

  (* Hash the whole kernel: [Hashtbl.hash] reads only a prefix of a
     list, and kernels of one automaton often share theirs. *)
  let hash ((k, n, e) : t) =
    List.fold_left (fun h s -> (h * 31) + s) ((Bool.to_int n * 2) + Bool.to_int e) k
    land max_int
end

module Index = Hashtbl.Make (Key)

type t = {
  nfa : Nfa.t;
  reseed : bool;
  has_sym : bool array;  (** by NFA state *)
  mark : int array;  (** by NFA state: generation of the last visit *)
  mutable gen : int;
  mutable states : state array;  (** grow-doubling *)
  mutable count : int;
  index : int Index.t;
  mid : Key.t;  (** start closure without BOL edges, for reseeding *)
  start_id : int;
}

(* Epsilon-closure of [seeds], summarised as a key. [at_bol] gates
   Eps_bol edges (position 0 only). Eps_eol edges are left out of the
   closure — no input can follow them — and only decide [accept_at_eol]:
   a second pass extends the marked closure across them within the same
   generation, so the states already marked are not walked again. *)
let summarize t ~at_bol seeds : Key.t =
  t.gen <- t.gen + 1;
  let gen = t.gen and transitions = t.nfa.Nfa.transitions in
  let closure = ref [] in
  let rec visit ~eol s =
    if t.mark.(s) <> gen then begin
      t.mark.(s) <- gen;
      if not eol then closure := s :: !closure;
      List.iter
        (fun (edge, dst) ->
          match edge with
          | Nfa.Eps -> visit ~eol dst
          | Nfa.Eps_bol -> if at_bol then visit ~eol dst
          | Nfa.Eps_eol -> if eol then visit ~eol dst
          | Nfa.Sym _ -> ())
        transitions.(s)
    end
  in
  List.iter (visit ~eol:false) seeds;
  let accept_now = t.mark.(t.nfa.Nfa.accept) = gen in
  List.iter
    (fun s ->
      List.iter
        (function Nfa.Eps_eol, dst -> visit ~eol:true dst | _ -> ())
        transitions.(s))
    !closure;
  let accept_at_eol = t.mark.(t.nfa.Nfa.accept) = gen in
  let kernel = List.sort Int.compare (List.filter (fun s -> t.has_sym.(s)) !closure) in
  (kernel, accept_now, accept_at_eol)

(* Union with the reseed summary: reachability distributes over union, so
   kernels merge and the acceptance bits or together. *)
let with_mid t ((k, n, e) as key : Key.t) : Key.t =
  if not t.reseed then key
  else
    let mk, mn, me = t.mid in
    (List.sort_uniq Int.compare (k @ mk), n || mn, e || me)

let intern t ((kernel, accept_now, accept_at_eol) as key) =
  match Index.find_opt t.index key with
  | Some id -> id
  | None ->
    let id = t.count in
    let state = { kernel; trans = Array.make 256 (-1); accept_now; accept_at_eol } in
    if t.count = Array.length t.states then begin
      let bigger = Array.make (max 16 (2 * t.count)) state in
      Array.blit t.states 0 bigger 0 t.count;
      t.states <- bigger
    end;
    t.states.(t.count) <- state;
    t.count <- t.count + 1;
    Index.add t.index key id;
    id

let create nfa ~reseed =
  let transitions = nfa.Nfa.transitions in
  let n = Array.length transitions in
  let has_sym =
    Array.map (List.exists (function Nfa.Sym _, _ -> true | _ -> false)) transitions
  in
  let t =
    {
      nfa;
      reseed;
      has_sym;
      mark = Array.make n 0;
      gen = 0;
      states = [||];
      count = 0;
      index = Index.create 64;
      mid = ([], false, false);
      start_id = 0;
    }
  in
  let t = { t with mid = summarize t ~at_bol:false [ nfa.Nfa.start ] } in
  let start_id = intern t (with_mid t (summarize t ~at_bol:true [ nfa.Nfa.start ])) in
  { t with start_id }

(* The state reached from [state] on byte [c], interned on first sight. *)
let successor t state c =
  let moved = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun (edge, dst) ->
          match edge with
          | Nfa.Sym pred -> if pred c then moved := dst :: !moved
          | Nfa.Eps | Nfa.Eps_bol | Nfa.Eps_eol -> ())
        t.nfa.Nfa.transitions.(s))
    state.kernel;
  intern t (with_mid t (summarize t ~at_bol:false !moved))

let step t state_id c =
  let state = t.states.(state_id) in
  let cached = state.trans.(Char.code c) in
  if cached >= 0 then cached
  else begin
    let id = successor t state c in
    state.trans.(Char.code c) <- id;
    id
  end

(* Byte-equivalence classes of the NFA's [Sym] predicates: two bytes share
   a class iff every predicate agrees on them, so one representative per
   class decides the transition for all of its bytes. Refined one
   predicate at a time; class ids are numbered in order of first byte. *)
let byte_classes nfa =
  let cls = Array.make 256 0 and n = ref 1 in
  Array.iter
    (List.iter (function
      | Nfa.Sym pred, _ ->
        let remap = Array.make (2 * !n) (-1) and next = ref 0 in
        for b = 0 to 255 do
          let k = (2 * cls.(b)) + Bool.to_int (pred (Char.chr b)) in
          if remap.(k) < 0 then begin
            remap.(k) <- !next;
            incr next
          end;
          cls.(b) <- remap.(k)
        done;
        n := !next
      | (Nfa.Eps | Nfa.Eps_bol | Nfa.Eps_eol), _ -> ()))
    nfa.Nfa.transitions;
  let reps = Array.make !n '\000' in
  for b = 255 downto 0 do
    reps.(cls.(b)) <- Char.chr b
  done;
  (cls, reps)

(* Frozen DFA: the lazy machine with every transition forced, copied into
   dense immutable arrays. No mutation on the match path, so one frozen
   automaton is domain-shareable and can live in the process-wide compile
   cache. [freeze] walks states breadth-first, computing one transition
   per byte class and filling the state's 256-wide row from it; patterns
   whose subset construction blows past [max_states] (pathological
   alternation/counting) return [None] and keep the per-handle lazy
   path. *)

type frozen = {
  f_trans : int array;  (** [(state lsl 8) lor byte] -> next state *)
  f_accept_now : bool array;
  f_accept_at_eol : bool array;
  f_start : int;
}

let freeze nfa ~reseed ~max_states =
  let t = create nfa ~reseed in
  let cls, reps = byte_classes nfa in
  let row = Array.make (Array.length reps) 0 in
  let exception Too_big in
  try
    (* [t.count] grows as [successor] interns new states; the loop chases
       it, and gives up as soon as one interned state passes the cap. *)
    let i = ref 0 in
    while !i < t.count do
      let st = t.states.(!i) in
      Array.iteri
        (fun c rep ->
          row.(c) <- successor t st rep;
          if t.count > max_states then raise Too_big)
        reps;
      Array.iteri (fun b c -> st.trans.(b) <- row.(c)) cls;
      incr i
    done;
    let n = t.count in
    let f_trans = Array.make (n * 256) 0 in
    let f_accept_now = Array.make n false in
    let f_accept_at_eol = Array.make n false in
    for s = 0 to n - 1 do
      let st = t.states.(s) in
      Array.blit st.trans 0 f_trans (s lsl 8) 256;
      f_accept_now.(s) <- st.accept_now;
      f_accept_at_eol.(s) <- st.accept_at_eol
    done;
    Some { f_trans; f_accept_now; f_accept_at_eol; f_start = t.start_id }
  with Too_big -> None

let frozen_states f = Array.length f.f_accept_now

let frozen_search f subject =
  let n = String.length subject in
  let trans = f.f_trans in
  let rec go state i =
    if Array.unsafe_get f.f_accept_now state then true
    else if i >= n then Array.unsafe_get f.f_accept_at_eol state
    else
      go
        (Array.unsafe_get trans ((state lsl 8) lor Char.code (String.unsafe_get subject i)))
        (i + 1)
  in
  go f.f_start 0

let frozen_matches f subject =
  let n = String.length subject in
  let trans = f.f_trans in
  let rec go state i =
    if i >= n then Array.unsafe_get f.f_accept_at_eol state
    else
      go
        (Array.unsafe_get trans ((state lsl 8) lor Char.code (String.unsafe_get subject i)))
        (i + 1)
  in
  go f.f_start 0

(* Search semantics ([reseed = true]): accept as soon as any prefix of the
   remaining scan completes a match. *)
let search t subject =
  let n = String.length subject in
  let rec go state i =
    if t.states.(state).accept_now then true
    else if i >= n then t.states.(state).accept_at_eol
    else go (step t state subject.[i]) (i + 1)
  in
  go t.start_id 0

(* Whole-subject match ([reseed = false]). *)
let matches t subject =
  let n = String.length subject in
  let rec go state i =
    if i >= n then t.states.(state).accept_at_eol
    else go (step t state subject.[i]) (i + 1)
  in
  go t.start_id 0
