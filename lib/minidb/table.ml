type column = { name : string; ty : Value.ty }

type partition_spec = { part_col : string; part_sort : string }

(* One partition: live row ids sorted ascending on the sort column's value
   (ties by id). Grow-doubling like the heap. *)
type part = { mutable p_ids : int array; mutable p_len : int }

type partitioning = {
  spec : partition_spec;
  part_idx : int;  (* position of the partition (fk) column *)
  sort_idx : int;  (* position of the sort column *)
  parts : (int, part) Hashtbl.t;  (* Int partition key -> segment *)
  overflow : part;  (* rows whose partition key is Null / non-Int *)
}

type content_kind = Token | Trigram

(* One posting list: live row ids ascending, grow-doubling like the
   partition segments. *)
type posting = { mutable ids : int array; mutable len : int }

type content_index = {
  c_col : string;
  c_pos : int;  (* column position *)
  c_kind : content_kind;
  postings : (string, posting) Hashtbl.t;  (* term -> row ids *)
  multi : (string * int, int) Hashtbl.t;
      (* (term, row) -> occurrences of the term in the row, for the few
         pairs above 1; a posted pair not listed occurs once *)
}

type t = {
  name : string;
  columns : column array;
  (* rows is a grow-doubling array of value arrays *)
  mutable rows : Value.t array array;  (** grow-doubling array *)
  mutable row_count : int;
  mutable indexes : (string list * int array * Btree.t) list;
      (** (columns, column positions, tree) *)
  mutable content : content_index list;
  mutable distinct_cache : (string * (int * int)) list;
      (** column -> (row count at computation, distinct estimate) *)
  mutable version : int;
      (** bumped on every insert, delete and index creation; feeds
          {!Database.epoch} so prepared plans can detect staleness *)
  partitioning : partitioning option;
  mutable postings_changed : int;
      (** content-index entries (term, row) added or removed so far *)
}

let create ?partition ~name ~(columns : column list) () =
  (match columns with
   | [] -> invalid_arg "Table.create: no columns"
   | _ -> ());
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (c : column) ->
      if Hashtbl.mem seen c.name then
        invalid_arg (Printf.sprintf "Table.create: duplicate column %s" c.name);
      Hashtbl.add seen c.name ())
    columns;
  let find_col what c =
    let rec go i = function
      | [] ->
        invalid_arg
          (Printf.sprintf "Table.create(%s): %s column %s does not exist" name what c)
      | (col : column) :: rest -> if String.equal col.name c then i else go (i + 1) rest
    in
    go 0 columns
  in
  let partitioning =
    Option.map
      (fun spec ->
        let part_idx = find_col "partition" spec.part_col in
        (match (List.nth columns part_idx).ty with
         | Value.Tint -> ()
         | _ ->
           invalid_arg
             (Printf.sprintf "Table.create(%s): partition column %s must be int" name
                spec.part_col));
        let sort_idx = find_col "partition sort" spec.part_sort in
        { spec; part_idx; sort_idx;
          parts = Hashtbl.create 64;
          overflow = { p_ids = [||]; p_len = 0 } })
      partition
  in
  {
    name;
    columns = Array.of_list columns;
    rows = [||];
    row_count = 0;
    indexes = [];
    content = [];
    distinct_cache = [];
    version = 0;
    partitioning;
    postings_changed = 0;
  }

(* ---- partition segment maintenance ------------------------------------ *)

(* Order within a segment: ascending on the sort column under
   {!Value.compare_total}, ties broken by row id. Bulk loads insert in
   document order, so the common case is an O(1) append; out-of-order
   inserts (ORDPATH caret labels from the write path) binary-search their
   slot and shift. *)
let seg_cmp t pn id_a id_b =
  match
    Value.compare_total t.rows.(id_a).(pn.sort_idx) t.rows.(id_b).(pn.sort_idx)
  with
  | 0 -> compare id_a id_b
  | c -> c

let seg_for pn v =
  match v with
  | Value.Int k ->
    (match Hashtbl.find_opt pn.parts k with
     | Some p -> p
     | None ->
       let p = { p_ids = [||]; p_len = 0 } in
       Hashtbl.add pn.parts k p;
       p)
  | _ -> pn.overflow

let seg_existing pn v =
  match v with
  | Value.Int k -> Hashtbl.find_opt pn.parts k
  | _ -> Some pn.overflow

let seg_add t pn p id =
  if p.p_len = Array.length p.p_ids then begin
    let cap = max 8 (2 * Array.length p.p_ids) in
    let bigger = Array.make cap 0 in
    Array.blit p.p_ids 0 bigger 0 p.p_len;
    p.p_ids <- bigger
  end;
  if p.p_len = 0 || seg_cmp t pn p.p_ids.(p.p_len - 1) id < 0 then
    p.p_ids.(p.p_len) <- id
  else begin
    (* first slot whose element sorts after the new row *)
    let lo = ref 0 and hi = ref p.p_len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if seg_cmp t pn p.p_ids.(mid) id < 0 then lo := mid + 1 else hi := mid
    done;
    Array.blit p.p_ids !lo p.p_ids (!lo + 1) (p.p_len - !lo);
    p.p_ids.(!lo) <- id
  end;
  p.p_len <- p.p_len + 1

let seg_remove t pn p id =
  (* Binary search by the row's current sort key, then drop the slot. *)
  let lo = ref 0 and hi = ref p.p_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if seg_cmp t pn p.p_ids.(mid) id < 0 then lo := mid + 1 else hi := mid
  done;
  let at =
    if !lo < p.p_len && p.p_ids.(!lo) = id then !lo
    else begin
      (* defensive fallback; unreachable while the sorted invariant holds *)
      let rec find i = if i >= p.p_len then -1 else if p.p_ids.(i) = id then i else find (i + 1) in
      find 0
    end
  in
  if at >= 0 then begin
    Array.blit p.p_ids (at + 1) p.p_ids at (p.p_len - at - 1);
    p.p_len <- p.p_len - 1
  end

let part_insert t id values =
  match t.partitioning with
  | None -> ()
  | Some pn -> seg_add t pn (seg_for pn values.(pn.part_idx)) id

(* Must run while [t.rows.(id)] still holds the row being removed (the
   binary search keys off the stored sort value). *)
let part_remove t id values =
  match t.partitioning with
  | None -> ()
  | Some pn ->
    (match seg_existing pn values.(pn.part_idx) with
     | Some p -> seg_remove t pn p id
     | None -> ())

(* ---- content (token / trigram) index maintenance ---------------------- *)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Terms of [s.[lo .. hi-1]] under the index kind, each with its number
   of occurrences. Token: maximal whitespace-free runs. Trigram: every
   3-byte substring. *)
let window_terms kind s lo hi =
  let counts = Hashtbl.create 16 in
  let add t =
    match Hashtbl.find_opt counts t with Some k -> incr k | None -> Hashtbl.add counts t (ref 1)
  in
  (match kind with
   | Token ->
     let i = ref lo in
     while !i < hi do
       while !i < hi && is_space s.[!i] do incr i done;
       let start = !i in
       while !i < hi && not (is_space s.[!i]) do incr i done;
       if !i > start then add (String.sub s start (!i - start))
     done
   | Trigram ->
     for i = lo to hi - 3 do
       add (String.sub s i 3)
     done);
  counts

let content_terms kind s = window_terms kind s 0 (String.length s)

(* Posting lists mirror the partition segments: ascending row ids,
   O(1) append for the monotone bulk-load case, binary-search insert for
   out-of-order ids. Both return whether the list changed. *)
let posting_add p id =
  let at =
    if p.len = 0 || p.ids.(p.len - 1) < id then p.len
    else begin
      let lo = ref 0 and hi = ref p.len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if p.ids.(mid) < id then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  in
  if at < p.len && p.ids.(at) = id then false
  else begin
    if p.len = Array.length p.ids then begin
      let cap = max 8 (2 * Array.length p.ids) in
      let bigger = Array.make cap 0 in
      Array.blit p.ids 0 bigger 0 p.len;
      p.ids <- bigger
    end;
    if at < p.len then Array.blit p.ids at p.ids (at + 1) (p.len - at);
    p.ids.(at) <- id;
    p.len <- p.len + 1;
    true
  end

let posting_remove p id =
  let lo = ref 0 and hi = ref p.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.ids.(mid) < id then lo := mid + 1 else hi := mid
  done;
  if !lo < p.len && p.ids.(!lo) = id then begin
    Array.blit p.ids (!lo + 1) p.ids !lo (p.len - !lo - 1);
    p.len <- p.len - 1;
    true
  end
  else false

(* Occurrences of a posted term in row [id]. Counting them lets an edit
   that removes one occurrence know at once whether the term still
   occurs elsewhere in the value. *)
let occurrences ci term id = Option.value ~default:1 (Hashtbl.find_opt ci.multi (term, id))

(* Move row [id]'s occurrence count of [term] by [delta], posting or
   unposting the row (and creating or dropping the posting list) when
   the count leaves or reaches zero. *)
let content_adjust t ci id term delta =
  if delta > 0 then begin
    let p =
      match Hashtbl.find_opt ci.postings term with
      | Some p -> p
      | None ->
        let p = { ids = [||]; len = 0 } in
        Hashtbl.add ci.postings term p;
        p
    in
    if posting_add p id then begin
      t.postings_changed <- t.postings_changed + 1;
      if delta > 1 then Hashtbl.replace ci.multi (term, id) delta
    end
    else Hashtbl.replace ci.multi (term, id) (occurrences ci term id + delta)
  end
  else if delta < 0 then
    match Hashtbl.find_opt ci.postings term with
    | None -> ()
    | Some p ->
      let left = occurrences ci term id + delta in
      if left > 1 then Hashtbl.replace ci.multi (term, id) left
      else begin
        Hashtbl.remove ci.multi (term, id);
        if left <= 0 && posting_remove p id then begin
          t.postings_changed <- t.postings_changed + 1;
          if p.len = 0 then Hashtbl.remove ci.postings term
        end
      end

let text_of = function Value.Str s -> s | _ -> ""

(* Keep [ci] current after row [id]'s value went from [old_s] to [new_s]
   by replacing [del] bytes at [off] with [ins_len] bytes. Only the
   edited window is re-tokenized: for tokens it widens to whitespace on
   both sides (the prefix and suffix around the edit are the same bytes
   in both values, so every token outside the window is unchanged); for
   trigrams it widens by 2 bytes, the reach of a trigram touching the
   edit. A term whose occurrence count in the row drops to zero no
   longer occurs anywhere in the new value and is unposted. *)
let content_splice t ci id ~old_s ~new_s ~off ~del ~ins_len =
  let lo, hi =
    match ci.c_kind with
    | Token ->
      let lo = ref off and hi = ref (off + del) in
      while !lo > 0 && not (is_space old_s.[!lo - 1]) do decr lo done;
      while !hi < String.length old_s && not (is_space old_s.[!hi]) do incr hi done;
      !lo, !hi
    | Trigram -> max 0 (off - 2), min (String.length old_s) (off + del + 2)
  in
  let delta = window_terms ci.c_kind new_s lo (hi - del + ins_len) in
  Hashtbl.iter
    (fun term k ->
      match Hashtbl.find_opt delta term with
      | Some d -> d := !d - !k
      | None -> Hashtbl.add delta term (ref (- !k)))
    (window_terms ci.c_kind old_s lo hi);
  Hashtbl.iter (fun term d -> content_adjust t ci id term !d) delta

(* Post ([sign] = 1) or unpost ([sign] = -1) a whole value. *)
let content_whole t ci id sign v =
  Hashtbl.iter
    (fun term k -> content_adjust t ci id term (sign * !k))
    (content_terms ci.c_kind (text_of v))

let content_insert t id values =
  List.iter (fun ci -> content_whole t ci id 1 values.(ci.c_pos)) t.content

let content_remove t id values =
  List.iter (fun ci -> content_whole t ci id (-1) values.(ci.c_pos)) t.content

let name t = t.name

let version t = t.version

let columns t = Array.to_list t.columns

let column_index t col =
  let rec go i =
    if i >= Array.length t.columns then None
    else if String.equal t.columns.(i).name col then Some i
    else go (i + 1)
  in
  go 0

let column_ty t col =
  Option.map (fun i -> t.columns.(i).ty) (column_index t col)

let type_ok ty v =
  match v, ty with
  | Value.Null, _ -> true
  | Value.Int _, Value.Tint
  | Value.Float _, Value.Tfloat
  | Value.Str _, Value.Tstr
  | Value.Bin _, Value.Tbin ->
    true
  | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Bin _), _ -> false

let insert t values =
  if Array.length values <> Array.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): %d values for %d columns" t.name
         (Array.length values) (Array.length t.columns));
  Array.iteri
    (fun i v ->
      if not (type_ok t.columns.(i).ty v) then
        invalid_arg
          (Printf.sprintf "Table.insert(%s): value %s does not match column %s : %s"
             t.name (Value.to_string v) t.columns.(i).name
             (Format.asprintf "%a" Value.pp_ty t.columns.(i).ty)))
    values;
  if t.row_count = Array.length t.rows then begin
    let cap = max 16 (2 * Array.length t.rows) in
    let bigger = Array.make cap [||] in
    Array.blit t.rows 0 bigger 0 t.row_count;
    t.rows <- bigger
  end;
  let id = t.row_count in
  t.rows.(id) <- values;
  t.row_count <- id + 1;
  part_insert t id values;
  List.iter
    (fun (_, positions, tree) ->
      Btree.insert tree (Array.map (fun p -> values.(p)) positions) id)
    t.indexes;
  content_insert t id values;
  t.version <- t.version + 1;
  id

let delete t id =
  if id < 0 || id >= t.row_count || Array.length t.rows.(id) = 0 then false
  else begin
    let values = t.rows.(id) in
    List.iter
      (fun (_, positions, tree) ->
        ignore (Btree.delete tree (Array.map (fun p -> values.(p)) positions) id))
      t.indexes;
    content_remove t id values;
    part_remove t id values;
    t.rows.(id) <- [||];
    (* Invalidate cached statistics. *)
    t.distinct_cache <- [];
    t.version <- t.version + 1;
    true
  end

type cell =
  | Set of string * Value.t
  | Splice of { col : string; off : int; del : int; ins : string; len_before : int }

(* What one update did to a column, for index maintenance. *)
type edit = Untouched | Replaced | Spliced of { off : int; del : int; ins_len : int }

let live t id = id >= 0 && id < t.row_count && Array.length t.rows.(id) > 0

let splice_string s ~off ~del ins =
  let n = String.length s and k = String.length ins in
  let b = Bytes.create (n - del + k) in
  Bytes.blit_string s 0 b 0 off;
  Bytes.blit_string ins 0 b off k;
  Bytes.blit_string s (off + del) b (off + k) (n - off - del);
  Bytes.unsafe_to_string b

(* Apply [cells] to a copy of live row [id]: the new row and each
   column's edit. Raises [Invalid_argument], before anything is
   mutated, on an unknown column, a mistyped value, or a splice whose
   [len_before] or window does not fit the stored value. With
   [~build:false] only the checks run: no spliced value is built. *)
let staged_row ~build t id cells =
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg (Printf.sprintf "Table.update(%s): %s" t.name m)) fmt
  in
  let values = Array.copy t.rows.(id) in
  let edits = Array.make (Array.length values) Untouched in
  (* byte length of each text value as the cells so far left it; -1 when
     the value is not text *)
  let lens = Array.map (function Value.Str s -> String.length s | _ -> -1) values in
  let pos col = match column_index t col with Some i -> i | None -> fail "no column %s" col in
  List.iter
    (function
      | Set (col, v) ->
        let i = pos col in
        if not (type_ok t.columns.(i).ty v) then
          fail "value %s does not match column %s : %s" (Value.to_string v) col
            (Format.asprintf "%a" Value.pp_ty t.columns.(i).ty);
        values.(i) <- v;
        lens.(i) <- (match v with Value.Str s -> String.length s | _ -> -1);
        edits.(i) <- Replaced
      | Splice { col; off; del; ins; len_before } ->
        let i = pos col in
        if lens.(i) < 0 then fail "splice on column %s holding %s" col (Value.to_string values.(i));
        if lens.(i) <> len_before || off < 0 || del < 0 || off + del > len_before then
          fail "splice of %d bytes at %d on column %s expects a %d-byte value, found %d" del
            off col len_before lens.(i);
        lens.(i) <- len_before - del + String.length ins;
        if build then values.(i) <- Value.Str (splice_string (text_of values.(i)) ~off ~del ins);
        edits.(i) <-
          (match edits.(i) with
           | Untouched -> Spliced { off; del; ins_len = String.length ins }
           | Replaced | Spliced _ -> Replaced))
    cells;
  values, edits

let check_cells t id cells = if live t id then ignore (staged_row ~build:false t id cells)

let update t id cells =
  if not (live t id) then false
  else begin
    let values, edits = staged_row ~build:true t id cells in
    let old_values = t.rows.(id) in
    let touched i = match edits.(i) with Untouched -> false | Replaced | Spliced _ -> true in
    List.iter
      (fun (_, positions, tree) ->
        if Array.exists touched positions then begin
          let old_key = Array.map (fun p -> old_values.(p)) positions in
          let new_key = Array.map (fun p -> values.(p)) positions in
          if old_key <> new_key then begin
            ignore (Btree.delete tree old_key id);
            Btree.insert tree new_key id
          end
        end)
      t.indexes;
    List.iter
      (fun ci ->
        let old_s = text_of old_values.(ci.c_pos) and new_s = text_of values.(ci.c_pos) in
        match edits.(ci.c_pos) with
        | Untouched -> ()
        | Spliced { off; del; ins_len } ->
          content_splice t ci id ~old_s ~new_s ~off ~del ~ins_len
        | Replaced ->
          if not (String.equal old_s new_s) then
            content_splice t ci id ~old_s ~new_s ~off:0 ~del:(String.length old_s)
              ~ins_len:(String.length new_s))
      t.content;
    (match t.partitioning with
     | Some pn
       when not
              (Value.equal old_values.(pn.part_idx) values.(pn.part_idx)
               && Value.equal old_values.(pn.sort_idx) values.(pn.sort_idx)) ->
       part_remove t id old_values;
       t.rows.(id) <- values;
       part_insert t id values
     | Some _ | None -> t.rows.(id) <- values);
    t.distinct_cache <- [];
    t.version <- t.version + 1;
    true
  end

let postings_changed t = t.postings_changed

let row_count t = t.row_count

let live_count t =
  let n = ref 0 in
  for id = 0 to t.row_count - 1 do
    if Array.length t.rows.(id) > 0 then incr n
  done;
  !n

let row t id =
  if id < 0 || id >= t.row_count then
    invalid_arg (Printf.sprintf "Table.row(%s): id %d out of range" t.name id);
  t.rows.(id)

let iter_rows f t =
  for id = 0 to t.row_count - 1 do
    if Array.length t.rows.(id) > 0 then f id t.rows.(id)
  done

let create_index t cols =
  if List.exists (fun (existing, _, _) -> existing = cols) t.indexes then ()
  else begin
    let positions =
      Array.of_list
        (List.map
           (fun c ->
             match column_index t c with
             | Some i -> i
             | None ->
               invalid_arg
                 (Printf.sprintf "Table.create_index(%s): no column %s" t.name c))
           cols)
    in
    let tree = Btree.create ~width:(Array.length positions) () in
    iter_rows
      (fun id values -> Btree.insert tree (Array.map (fun p -> values.(p)) positions) id)
      t;
    t.indexes <- t.indexes @ [ (cols, positions, tree) ];
    t.version <- t.version + 1
  end

let index_on t cols =
  List.find_map
    (fun (existing, _, tree) -> if existing = cols then Some tree else None)
    t.indexes

let rec is_prefix prefix l =
  match prefix, l with
  | [], _ -> true
  | p :: ps, x :: xs -> String.equal p x && is_prefix ps xs
  | _ :: _, [] -> false

let index_with_prefix t cols =
  List.find_map
    (fun (existing, _, tree) ->
      if is_prefix cols existing then Some (tree, List.length existing) else None)
    t.indexes

let indexes t = List.map (fun (cols, _, tree) -> cols, tree) t.indexes

let distinct_estimate t col =
  match column_index t col with
  | None -> 1
  | Some pos ->
    (match List.assoc_opt col t.distinct_cache with
     | Some (stamp, d) when stamp = t.row_count -> d
     | Some _ | None ->
       let seen = Hashtbl.create 256 in
       for id = 0 to t.row_count - 1 do
         if Array.length t.rows.(id) > 0 then
           match t.rows.(id).(pos) with
           | Value.Null -> ()
           | v -> Hashtbl.replace seen (Value.to_string v) ()
       done;
       let d = max 1 (Hashtbl.length seen) in
       t.distinct_cache <-
         (col, (t.row_count, d)) :: List.remove_assoc col t.distinct_cache;
       d)

(* ---- partition introspection ------------------------------------------ *)

let partition_spec t = Option.map (fun pn -> pn.spec) t.partitioning

let partition_count t =
  match t.partitioning with
  | None -> 0
  | Some pn ->
    Hashtbl.fold (fun _ p n -> if p.p_len > 0 then n + 1 else n) pn.parts 0

let partition_keys t =
  match t.partitioning with
  | None -> []
  | Some pn ->
    Hashtbl.fold (fun k p acc -> if p.p_len > 0 then k :: acc else acc) pn.parts []
    |> List.sort compare

let partition_size t key =
  match t.partitioning with
  | None -> 0
  | Some pn ->
    (match Hashtbl.find_opt pn.parts key with Some p -> p.p_len | None -> 0)

let partition_view t key =
  match t.partitioning with
  | None -> [||], 0
  | Some pn ->
    (match Hashtbl.find_opt pn.parts key with
     | Some p -> p.p_ids, p.p_len
     | None -> [||], 0)

let iter_partition f t key =
  let ids, len = partition_view t key in
  for i = 0 to len - 1 do
    f ids.(i) t.rows.(ids.(i))
  done

let check_partitions t =
  match t.partitioning with
  | None -> Ok ()
  | Some pn ->
    let err fmt = Printf.ksprintf (fun s -> Error (t.name ^ ": " ^ s)) fmt in
    let seen = Hashtbl.create 256 in
    let check_seg label key_opt p =
      let rec go i =
        if i >= p.p_len then Ok ()
        else begin
          let id = p.p_ids.(i) in
          if id < 0 || id >= t.row_count || Array.length t.rows.(id) = 0 then
            err "%s holds dead row id %d" label id
          else if Hashtbl.mem seen id then err "row id %d appears in two segments" id
          else begin
            Hashtbl.add seen id ();
            let key_ok =
              match key_opt with
              | None -> (match t.rows.(id).(pn.part_idx) with Value.Int _ -> false | _ -> true)
              | Some k -> Value.equal t.rows.(id).(pn.part_idx) (Value.Int k)
            in
            if not key_ok then err "row id %d filed under wrong partition (%s)" id label
            else if i > 0 && seg_cmp t pn p.p_ids.(i - 1) id >= 0 then
              err "%s out of sort order at slot %d (row id %d)" label i id
            else go (i + 1)
          end
        end
      in
      go 0
    in
    let result =
      Hashtbl.fold
        (fun k p acc ->
          match acc with
          | Error _ -> acc
          | Ok () -> check_seg (Printf.sprintf "partition %d" k) (Some k) p)
        pn.parts (Ok ())
    in
    (match result with
     | Error _ as e -> e
     | Ok () ->
       (match check_seg "overflow segment" None pn.overflow with
        | Error _ as e -> e
        | Ok () ->
          let live = live_count t in
          if Hashtbl.length seen <> live then
            err "segments hold %d rows but table has %d live rows"
              (Hashtbl.length seen) live
          else Ok ()))

(* ---- content index API ------------------------------------------------- *)

let add_content_index t ~col ~kind =
  if
    List.exists
      (fun ci -> String.equal ci.c_col col && ci.c_kind = kind)
      t.content
  then ()
  else begin
    let pos =
      match column_index t col with
      | Some i -> i
      | None ->
        invalid_arg
          (Printf.sprintf "Table.add_content_index(%s): no column %s" t.name col)
    in
    (match t.columns.(pos).ty with
     | Value.Tstr -> ()
     | _ ->
       invalid_arg
         (Printf.sprintf "Table.add_content_index(%s): column %s is not text"
            t.name col));
    let ci =
      { c_col = col; c_pos = pos; c_kind = kind; postings = Hashtbl.create 256;
        multi = Hashtbl.create 64 }
    in
    iter_rows (fun id values -> content_whole t ci id 1 values.(pos)) t;
    t.content <- t.content @ [ ci ];
    t.version <- t.version + 1
  end

let content_indexes t = List.map (fun ci -> (ci.c_col, ci.c_kind)) t.content

(* Sorted-array set algebra over posting lists. *)
let arr_of_posting p = Array.sub p.ids 0 p.len

let arr_intersect a b =
  let out = Array.make (min (Array.length a) (Array.length b)) 0 in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out.(!k) <- x;
      incr k;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  Array.sub out 0 !k

let arr_union a b =
  let out = Array.make (Array.length a + Array.length b) 0 in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  let push x = out.(!k) <- x; incr k in
  while !i < Array.length a || !j < Array.length b do
    if !i >= Array.length a then begin push b.(!j); incr j end
    else if !j >= Array.length b then begin push a.(!i); incr i end
    else
      let x = a.(!i) and y = b.(!j) in
      if x = y then begin push x; incr i; incr j end
      else if x < y then begin push x; incr i end
      else begin push y; incr j end
  done;
  Array.sub out 0 !k

let posting_arr ci term =
  match Hashtbl.find_opt ci.postings term with
  | Some p -> arr_of_posting p
  | None -> [||]

(* Rows whose text can contain [lit], answered by one index; [None] when
   this index kind cannot answer for this literal. Trigram: intersect the
   posting lists of every trigram of the literal (needs >= 3 bytes).
   Token: the literal must sit inside a single token, so union the
   postings of every dictionary token containing it as a substring
   (unusable if the literal spans whitespace). *)
let contains_sub hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let alt_candidates ci lit =
  match ci.c_kind with
  | Trigram ->
    if String.length lit < 3 then None
    else begin
      let acc = ref None in
      (try
         for i = 0 to String.length lit - 3 do
           let ids = posting_arr ci (String.sub lit i 3) in
           (match !acc with
            | None -> acc := Some ids
            | Some prev -> acc := Some (arr_intersect prev ids));
           if !acc = Some [||] then raise Exit
         done
       with Exit -> ());
      match !acc with Some ids -> Some ids | None -> None
    end
  | Token ->
    if lit = "" || String.exists is_space lit then None
    else
      Some
        (Hashtbl.fold
           (fun term p acc ->
             if contains_sub term lit then arr_union acc (arr_of_posting p)
             else acc)
           ci.postings [||])

let content_candidates t ~col groups =
  let cis = List.filter (fun ci -> String.equal ci.c_col col) t.content in
  if cis = [] || groups = [] then None
  else begin
    (* A group's candidates: union over its alternatives; a group is
       usable only if every alternative is answerable (a row may match
       via the unanswerable one). Dropping unusable groups is sound —
       groups are conjunctive. *)
    let group_candidates group =
      List.fold_left
        (fun acc lit ->
          match acc with
          | None -> None
          | Some ids ->
            (match List.find_map (fun ci -> alt_candidates ci lit) cis with
             | Some more -> Some (arr_union ids more)
             | None -> None))
        (Some [||]) group
    in
    let usable = List.filter_map group_candidates groups in
    match usable with
    | [] -> None
    | first :: rest -> Some (List.fold_left arr_intersect first rest)
  end

let check_content_indexes t =
  let err fmt = Printf.ksprintf (fun s -> Error (t.name ^ ": " ^ s)) fmt in
  let check_one ci =
    (* Rebuild the expected postings from the live rows and require the
       stored table to match exactly (same terms, same sorted ids, same
       occurrence counts). *)
    let expected = Hashtbl.create 256 in
    iter_rows
      (fun id values ->
        Hashtbl.iter
          (fun term k ->
            let l = try Hashtbl.find expected term with Not_found -> [] in
            Hashtbl.replace expected term ((id, !k) :: l))
          (content_terms ci.c_kind (text_of values.(ci.c_pos))))
      t;
    let kind_label = match ci.c_kind with Token -> "token" | Trigram -> "trigram" in
    let multi =
      Hashtbl.fold
        (fun _ l n -> n + List.length (List.filter (fun (_, k) -> k > 1) l))
        expected 0
    in
    if Hashtbl.length expected <> Hashtbl.length ci.postings then
      err "%s index on %s: %d stored terms, expected %d" kind_label ci.c_col
        (Hashtbl.length ci.postings) (Hashtbl.length expected)
    else if Hashtbl.length ci.multi <> multi then
      err "%s index on %s: %d stored repeat counts, expected %d" kind_label ci.c_col
        (Hashtbl.length ci.multi) multi
    else
      Hashtbl.fold
        (fun term entries acc ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            let want = Array.of_list entries in
            Array.sort compare want;
            (match Hashtbl.find_opt ci.postings term with
             | None -> err "%s index on %s: term %S missing" kind_label ci.c_col term
             | Some p ->
               let got = Array.init p.len (fun i -> (p.ids.(i), occurrences ci term p.ids.(i))) in
               if got <> want then
                 err "%s index on %s: term %S holds %d ids, expected %d (or counts differ)"
                   kind_label ci.c_col term p.len (Array.length want)
               else Ok ()))
        expected (Ok ())
  in
  List.fold_left
    (fun acc ci -> match acc with Error _ -> acc | Ok () -> check_one ci)
    (Ok ()) t.content
