module Tree = Ppfx_xml.Tree
module Doc = Ppfx_xml.Doc
module Graph = Ppfx_schema.Graph
module Ordpath = Ppfx_dewey.Ordpath
module Mapping = Ppfx_shred.Mapping
module Loader = Ppfx_shred.Loader
module Database = Ppfx_minidb.Database
module Table = Ppfx_minidb.Table
module Btree = Ppfx_minidb.Btree
module Value = Ppfx_minidb.Value

exception Update_error of string

let error fmt = Format.kasprintf (fun m -> raise (Update_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Shadow forest                                                       *)
(*                                                                     *)
(* The store's tables are flat rows; maintaining them incrementally    *)
(* needs the tree the rows came from — parent/child adjacency, the     *)
(* interleaving of text and element children (lost by the relational   *)
(* [text]/[dtext] columns), and each element's label. The shadow       *)
(* forest is that tree, kept exactly in sync with the committed store: *)
(* every mutation first rewrites the shadow, then derives the row      *)
(* changeset from it. Each node also carries the byte length of its    *)
(* string value (derived, never persisted), so a mutation can address *)
(* its ancestors' [text] cells by offset without rebuilding them.      *)
(* ------------------------------------------------------------------ *)

type node = {
  n_id : int;  (** global element id, never reused *)
  n_doc : int;  (** owning document id *)
  n_def : Graph.def;
  n_label : Ordpath.t;  (** full stored label, document component included *)
  n_path : string;
  n_path_id : int;
  mutable n_attrs : (string * string) list;
  mutable n_items : item list;  (** interleaved text and element children *)
  mutable n_parent : node option;
  mutable n_len : int;  (** byte length of the string value *)
}

and item = I_text of string | I_node of node

let elem_children n =
  List.filter_map (function I_node c -> Some c | I_text _ -> None) n.n_items

let direct_text n =
  String.concat "" (List.filter_map (function I_text s -> Some s | I_node _ -> None) n.n_items)

let rec string_value n =
  String.concat ""
    (List.map (function I_text s -> s | I_node c -> string_value c) n.n_items)

let tag n = n.n_def.Graph.name

let item_len = function I_text s -> String.length s | I_node c -> c.n_len

let items_len items = List.fold_left (fun acc it -> acc + item_len it) 0 items

(* [p]'s element children tagged [t], in document order: their list
   positions and length are the [ord]/[sibs] descriptors. *)
let same_tag p t =
  List.filter_map
    (function I_node c when String.equal (tag c) t -> Some c | I_node _ | I_text _ -> None)
    p.n_items

let iter_positions f p t =
  let same = same_tag p t in
  let sibs = List.length same in
  List.iteri (fun i c -> f c (i + 1) sibs) same

(* Byte offset of child [c]'s string value inside its parent [p]'s. *)
let offset_in_parent p c =
  let rec go acc = function
    | [] -> error "shadow corruption: node %d not among its parent's items" c.n_id
    | I_node x :: _ when x == c -> acc
    | it :: rest -> go (acc + item_len it) rest
  in
  go 0 p.n_items

let rec iter_subtree f n =
  f n;
  List.iter (function I_node c -> iter_subtree f c | I_text _ -> ()) n.n_items

type t = {
  mutable store : Loader.t;
  mutable roots : node list;  (** document order *)
  by_id : (int, node) Hashtbl.t;
  path_ids : (string, int) Hashtbl.t;  (** live paths -> pathid *)
  path_refs : (int, int) Hashtbl.t;  (** pathid -> live element count *)
  mutable next_id : int;
  mutable next_path_id : int;
}

let store u = u.store
let db u = u.store.Loader.db
let size u = Hashtbl.length u.by_id

let find u id =
  match Hashtbl.find_opt u.by_id id with
  | Some n -> n
  | None -> error "no element with id %d" id

let node_exists u id = Hashtbl.mem u.by_id id
let node_path u id = (find u id).n_path
let node_tag u id = tag (find u id)
let node_label u id = Ordpath.to_raw (find u id).n_label
let node_relation u id =
  let n = find u id in
  Mapping.relation u.store.Loader.mapping n.n_def
let node_parent u id = Option.map (fun p -> p.n_id) (find u id).n_parent
let node_children u id = List.map (fun c -> c.n_id) (elem_children (find u id))

let max_label_len u =
  Hashtbl.fold
    (fun _ n acc -> max acc (String.length (Ordpath.to_raw n.n_label)))
    u.by_id 0

(* Document-order ranks: id -> 1-based rank over all live elements,
   derived from label byte order. The differential tests compare query
   results across stores whose ids diverge (incremental keeps original
   ids, a re-shred renumbers) by mapping each id to its rank. *)
let ranks u =
  let all = Hashtbl.fold (fun id n acc -> (Ordpath.to_raw n.n_label, id) :: acc) u.by_id [] in
  let arr = Array.of_list all in
  Array.sort compare arr;
  let tbl = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i (_, id) -> Hashtbl.replace tbl id (i + 1)) arr;
  tbl

let rec tree_of_node n =
  Tree.Element
    {
      Tree.tag = tag n;
      attrs = n.n_attrs;
      children =
        List.map
          (function I_text s -> Tree.Text s | I_node c -> tree_of_node c)
          n.n_items;
    }

let current_trees u = List.map tree_of_node u.roots

(* ------------------------------------------------------------------ *)
(* Shadow construction                                                 *)
(* ------------------------------------------------------------------ *)

let child_def schema parent_def t =
  List.find_opt (fun c -> String.equal c.Graph.name t) (Graph.children schema parent_def)

(* Build the shadow of [tree] with [def] at [root_label], assigning
   fresh preorder ids and interning paths through [intern]. Does not
   attach the result anywhere. *)
let build_subtree u ~doc ~def ~path ~root_label ~intern tree =
  let schema = Mapping.schema u.store.Loader.mapping in
  let rec build def path label parent (e : Tree.element) =
    let id = u.next_id in
    u.next_id <- id + 1;
    let pid = intern path in
    let n =
      {
        n_id = id;
        n_doc = doc;
        n_def = def;
        n_label = label;
        n_path = path;
        n_path_id = pid;
        n_attrs = List.filter (fun (a, _) -> List.mem a def.Graph.attrs) e.Tree.attrs;
        n_items = [];
        n_parent = parent;
        n_len = 0;
      }
    in
    let seq = ref 0 in
    n.n_items <-
      List.map
        (function
          | Tree.Text s -> I_text s
          | Tree.Element c ->
            incr seq;
            let cdef =
              match child_def schema def c.Tree.tag with
              | Some d -> d
              | None ->
                error "element %s at %s does not match the schema" c.Tree.tag path
            in
            I_node
              (build cdef
                 (path ^ "/" ^ c.Tree.tag)
                 (Ordpath.child label !seq) (Some n) c))
        e.Tree.children;
    n.n_len <- items_len n.n_items;
    Hashtbl.replace u.by_id id n;
    Hashtbl.replace u.path_refs pid
      (1 + Option.value ~default:0 (Hashtbl.find_opt u.path_refs pid));
    n
  in
  match tree with
  | Tree.Text _ -> error "fragment must be an element"
  | Tree.Element e ->
    (match def with
     | Some d when not (String.equal d.Graph.name e.Tree.tag) ->
       error "fragment root %s does not match expected element %s" e.Tree.tag
         d.Graph.name
     | _ -> ());
    let d =
      match def with
      | Some d -> d
      | None -> error "build_subtree: no definition"
    in
    build d path root_label None e

(* Pre-validate a fragment against the schema without touching any
   state, so a rejected fragment leaves the shadow untouched. *)
let validate_fragment u ~parent_def tree =
  let schema = Mapping.schema u.store.Loader.mapping in
  let rec walk def = function
    | Tree.Text _ -> ()
    | Tree.Element e ->
      List.iter
        (function
          | Tree.Text _ -> ()
          | Tree.Element c as child ->
            (match child_def schema def c.Tree.tag with
             | Some d -> walk d child
             | None ->
               error "element %s under %s does not match the schema" c.Tree.tag
                 def.Graph.name))
        e.Tree.children
  in
  match tree with
  | Tree.Text _ -> error "fragment must be an element"
  | Tree.Element e ->
    (match child_def schema parent_def e.Tree.tag with
     | Some d -> walk d tree; d
     | None ->
       error "element %s is not a valid child of %s" e.Tree.tag parent_def.Graph.name)

(* ------------------------------------------------------------------ *)
(* Row derivation                                                      *)
(* ------------------------------------------------------------------ *)

let build_row u n ~ord ~sibs =
  let mapping = u.store.Loader.mapping in
  let schema = Mapping.schema mapping in
  let def = n.n_def in
  let fk_cols =
    List.map
      (fun p -> Mapping.parent_fk mapping ~child:def ~parent:p, p)
      (Graph.parents schema def)
  in
  let attr_cols = List.map (fun a -> Mapping.attr_column a, a) def.Graph.attrs in
  let value_of (c : Table.column) =
    let name = c.Table.name in
    if String.equal name "id" then Value.Int n.n_id
    else if String.equal name "doc_id" then
      match n.n_parent with None -> Value.Int n.n_doc | Some _ -> Value.Null
    else if String.equal name "dewey_pos" then Value.Bin (Ordpath.to_raw n.n_label)
    else if String.equal name "path_id" then Value.Int n.n_path_id
    else if String.equal name Mapping.text_column then Value.Str (string_value n)
    else if String.equal name Mapping.dtext_column then Value.Str (direct_text n)
    else if String.equal name "ord" then Value.Int ord
    else if String.equal name "sibs" then Value.Int sibs
    else
      match List.assoc_opt name fk_cols with
      | Some p -> (
        match n.n_parent with
        | Some par when par.n_def.Graph.id = p.Graph.id -> Value.Int par.n_id
        | Some _ | None -> Value.Null)
      | None -> (
        match List.assoc_opt name attr_cols with
        | Some a -> (
          match List.assoc_opt a n.n_attrs with
          | Some v -> Value.Str v
          | None -> Value.Null)
        | None -> error "unmapped column %s in relation %s" name def.Graph.relation)
  in
  Array.of_list (List.map value_of (Mapping.columns_of_def mapping def))

let relation_of u n = Mapping.relation u.store.Loader.mapping n.n_def

(* ------------------------------------------------------------------ *)
(* Changesets                                                          *)
(* ------------------------------------------------------------------ *)

type cell = Table.cell =
  | Set of string * Value.t
  | Splice of { col : string; off : int; del : int; ins : string; len_before : int }

type row_op =
  | Row_insert of { table : string; values : Value.t array }
  | Row_update of { table : string; elem : int; cells : cell list }
  | Row_delete of { table : string; elem : int }

type routing = {
  rt_parent : int;  (** element id of the mutation site's parent *)
  rt_left : int option;  (** adjacent element sibling ids of the new subtree *)
  rt_right : int option;
  rt_fk : (string * string) option;
      (** the fragment root's (relation, parent-fk column) — lets the
          cluster detect a newly appearing boundary foreign key *)
}

type changeset = {
  cs_ops : row_op list;  (** deletes, then updates, then inserts *)
  cs_new_paths : (int * string) list;
  cs_dead_paths : int list;
  cs_pathids : int list;  (** the commit's changed-pathid set *)
  cs_routing : routing option;
}

type outcome = {
  inserted : int;
  updated : int;
  deleted : int;
  new_paths : int;
  dead_paths : int;
}

let outcome_of cs =
  List.fold_left
    (fun o op ->
      match op with
      | Row_insert _ -> { o with inserted = o.inserted + 1 }
      | Row_update _ -> { o with updated = o.updated + 1 }
      | Row_delete _ -> { o with deleted = o.deleted + 1 })
    {
      inserted = 0;
      updated = 0;
      deleted = 0;
      new_paths = List.length cs.cs_new_paths;
      dead_paths = List.length cs.cs_dead_paths;
    }
    cs.cs_ops

(* ------------------------------------------------------------------ *)
(* Operations (staging: shadow mutation + changeset derivation)        *)
(* ------------------------------------------------------------------ *)

type op =
  | Insert_subtree of { parent : int; before : int option; fragment : Tree.node }
  | Delete_subtree of { target : int }
  | Replace_subtree of { target : int; fragment : Tree.node }
  | Set_attribute of { target : int; name : string; value : string option }
  | Set_text of { target : int; text : string }

(* A staged mutation accumulates deletes, per-row cell edits and
   inserts plus the pathid set. Inserted rows are built in [finish],
   from the final shadow. *)
type acc = {
  mutable a_deletes : (string * int) list;  (* reverse order *)
  a_updates : (int, string * cell list) Hashtbl.t;  (* elem -> table, reversed cells *)
  mutable a_inserts : node list;  (* reverse preorder *)
  mutable a_new_paths : (int * string) list;  (* reverse intern order *)
  mutable a_dead_paths : int list;
  a_pathids : (int, unit) Hashtbl.t;
}

let acc_create () =
  {
    a_deletes = [];
    a_updates = Hashtbl.create 8;
    a_inserts = [];
    a_new_paths = [];
    a_dead_paths = [];
    a_pathids = Hashtbl.create 8;
  }

let touch_path acc pid = Hashtbl.replace acc.a_pathids pid ()

let add_cell u acc n cell =
  let cells = match Hashtbl.find_opt acc.a_updates n.n_id with Some (_, l) -> l | None -> [] in
  Hashtbl.replace acc.a_updates n.n_id (relation_of u n, cell :: cells);
  touch_path acc n.n_path_id

(* The positional descriptors of [p]'s children tagged [t] — the only
   ones a mutation of a [t] child moves — to diff against afterwards. *)
let positions_before p t =
  let tbl = Hashtbl.create 16 in
  iter_positions (fun c ord sibs -> Hashtbl.replace tbl c.n_id (ord, sibs)) p t;
  tbl

(* Surviving [t] children of [p] whose [ord]/[sibs] the mutation moved
   get those cells set; a new child is inserted whole instead. *)
let refresh_siblings u acc p t ~before =
  iter_positions
    (fun c ord sibs ->
      match Hashtbl.find_opt before c.n_id with
      | None -> ()
      | Some (ord0, sibs0) ->
        if ord <> ord0 then add_cell u acc c (Set ("ord", Value.Int ord));
        if sibs <> sibs0 then add_cell u acc c (Set ("sibs", Value.Int sibs)))
    p t

(* [n]'s string value had [del] bytes at [off] replaced by [ins]. Every
   ancestor's value contains [n]'s at a fixed offset, so each of them
   (and [n]) gets one splice of its [text] cell, addressed through the
   shadow's string-value lengths, which move by the same delta. *)
let rec splice_up u acc n ~off ~del ~ins =
  add_cell u acc n
    (Splice { col = Mapping.text_column; off; del; ins; len_before = n.n_len });
  let up = Option.map (fun p -> (p, offset_in_parent p n + off)) n.n_parent in
  n.n_len <- n.n_len - del + String.length ins;
  Option.iter (fun (p, off) -> splice_up u acc p ~off ~del ~ins) up

(* The one splice that turns [old] into [new_] (common prefix and
   suffix kept), applied at byte [off] of [n]'s string value and up its
   ancestor chain. Nothing happens when the values are equal. *)
let replace_text u acc n ~off ~old ~new_ =
  if not (String.equal old new_) then begin
    let lo = String.length old and ln = String.length new_ in
    let pre = ref 0 in
    while !pre < lo && !pre < ln && old.[!pre] = new_.[!pre] do incr pre done;
    let suf = ref 0 in
    while
      !suf < lo - !pre && !suf < ln - !pre && old.[lo - 1 - !suf] = new_.[ln - 1 - !suf]
    do
      incr suf
    done;
    splice_up u acc n ~off:(off + !pre)
      ~del:(lo - !pre - !suf)
      ~ins:(String.sub new_ !pre (ln - !pre - !suf))
  end

let intern_for acc u path =
  match Hashtbl.find_opt u.path_ids path with
  | Some id -> id
  | None ->
    let id = u.next_path_id in
    u.next_path_id <- id + 1;
    Hashtbl.replace u.path_ids path id;
    acc.a_new_paths <- (id, path) :: acc.a_new_paths;
    id

let detach_subtree u acc n =
  iter_subtree
    (fun c ->
      acc.a_deletes <- (relation_of u c, c.n_id) :: acc.a_deletes;
      touch_path acc c.n_path_id;
      Hashtbl.remove u.by_id c.n_id;
      let refs = Option.value ~default:1 (Hashtbl.find_opt u.path_refs c.n_path_id) in
      if refs <= 1 then begin
        Hashtbl.remove u.path_refs c.n_path_id;
        Hashtbl.remove u.path_ids c.n_path;
        acc.a_dead_paths <- c.n_path_id :: acc.a_dead_paths
      end
      else Hashtbl.replace u.path_refs c.n_path_id (refs - 1))
    n

let finish u acc ~routing =
  (* inserted rows' positions among their same-tag siblings, one pass
     per (parent, tag) *)
  let positions = Hashtbl.create 16 in
  let position n =
    match n.n_parent with
    | None -> 1, 1
    | Some p ->
      if not (Hashtbl.mem positions n.n_id) then
        iter_positions (fun c ord sibs -> Hashtbl.replace positions c.n_id (ord, sibs)) p (tag n);
      Hashtbl.find positions n.n_id
  in
  let ops =
    List.rev_map (fun (table, elem) -> Row_delete { table; elem }) acc.a_deletes
    @ (Hashtbl.fold (fun elem (table, cells) l -> (elem, table, cells) :: l) acc.a_updates []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      |> List.filter_map (fun (elem, table, cells) ->
             if Hashtbl.mem u.by_id elem then
               Some (Row_update { table; elem; cells = List.rev cells })
             else None))
    @ List.rev_map
        (fun n ->
          let ord, sibs = position n in
          Row_insert { table = relation_of u n; values = build_row u n ~ord ~sibs })
        acc.a_inserts
  in
  {
    cs_ops = ops;
    cs_new_paths = List.rev acc.a_new_paths;
    cs_dead_paths = List.rev acc.a_dead_paths;
    cs_pathids = Hashtbl.fold (fun k () l -> k :: l) acc.a_pathids [];
    cs_routing = routing;
  }

(* Splice [fragment] under [p] immediately before the child element
   [before] (or at the end). Returns the new subtree root. *)
let stage_insert u acc p ~before ~left ~right fragment =
  let fdef = validate_fragment u ~parent_def:p.n_def fragment in
  let root_label =
    match left, right with
    | None, None -> Ordpath.child p.n_label 1
    | l, r ->
      Ordpath.insert_between
        (Option.map (fun n -> n.n_label) l)
        (Option.map (fun n -> n.n_label) r)
  in
  let froot =
    build_subtree u ~doc:p.n_doc ~def:(Some fdef)
      ~path:(p.n_path ^ "/" ^ fdef.Graph.name)
      ~root_label ~intern:(intern_for acc u) fragment
  in
  froot.n_parent <- Some p;
  let rec splice = function
    | [] -> [ I_node froot ]
    | I_node c :: rest when (match before with Some b -> c == b | None -> false) ->
      I_node froot :: I_node c :: rest
    | it :: rest -> it :: splice rest
  in
  p.n_items <- splice p.n_items;
  iter_subtree
    (fun c ->
      acc.a_inserts <- c :: acc.a_inserts;
      touch_path acc c.n_path_id)
    froot;
  froot

let insert_neighbors p ~before =
  (* nearest element siblings on each side of the insertion point *)
  match before with
  | None ->
    let rec last acc = function
      | [] -> acc
      | I_node c :: rest -> last (Some c) rest
      | I_text _ :: rest -> last acc rest
    in
    last None p.n_items, None
  | Some b ->
    let rec go left = function
      | [] -> error "before-element %d is not a child of element %d" b.n_id p.n_id
      | I_node c :: _ when c == b -> left, Some c
      | I_node c :: rest -> go (Some c) rest
      | I_text _ :: rest -> go left rest
    in
    go None p.n_items

(* The root tag a fragment will be inserted under (a text fragment is
   rejected by [validate_fragment]). *)
let fragment_tag = function Tree.Element e -> e.Tree.tag | Tree.Text _ -> ""

let routing_for ~parent ~left ~right ~fk =
  Some
    {
      rt_parent = parent.n_id;
      rt_left = Option.map (fun n -> n.n_id) left;
      rt_right = Option.map (fun n -> n.n_id) right;
      rt_fk = fk;
    }

let stage u op =
  let mapping = u.store.Loader.mapping in
  match op with
  | Insert_subtree { parent; before; fragment } ->
    let p = find u parent in
    let before_node =
      Option.map
        (fun b ->
          let bn = find u b in
          (match bn.n_parent with
           | Some q when q == p -> ()
           | _ -> error "before-element %d is not a child of element %d" b parent);
          bn)
        before
    in
    let left, right = insert_neighbors p ~before:before_node in
    let acc = acc_create () in
    let before = positions_before p (fragment_tag fragment) in
    let froot = stage_insert u acc p ~before:before_node ~left ~right fragment in
    refresh_siblings u acc p (tag froot) ~before;
    replace_text u acc p ~off:(offset_in_parent p froot) ~old:"" ~new_:(string_value froot);
    let fk =
      Some
        ( relation_of u froot,
          Mapping.parent_fk mapping ~child:froot.n_def ~parent:p.n_def )
    in
    finish u acc ~routing:(routing_for ~parent:p ~left ~right ~fk)
  | Delete_subtree { target } ->
    let n = find u target in
    let p =
      match n.n_parent with
      | Some p -> p
      | None -> error "cannot delete a document root (element %d)" target
    in
    let acc = acc_create () in
    let off = offset_in_parent p n in
    let before = positions_before p (tag n) in
    detach_subtree u acc n;
    p.n_items <- List.filter (function I_node c -> not (c == n) | I_text _ -> true) p.n_items;
    refresh_siblings u acc p (tag n) ~before;
    if n.n_len > 0 then splice_up u acc p ~off ~del:n.n_len ~ins:"";
    finish u acc ~routing:None
  | Replace_subtree { target; fragment } ->
    let n = find u target in
    let p =
      match n.n_parent with
      | Some p -> p
      | None -> error "cannot replace a document root (element %d)" target
    in
    (* Validate before mutating, so a bad fragment leaves the shadow
       untouched. *)
    let _ = validate_fragment u ~parent_def:p.n_def fragment in
    let acc = acc_create () in
    let old_text = string_value n in
    (* Neighbors around the target, excluding it. *)
    let rec around left = function
      | [] -> error "shadow corruption: node %d not among its parent's items" n.n_id
      | I_node c :: rest when c == n ->
        let rec first = function
          | [] -> None
          | I_node r :: _ -> Some r
          | I_text _ :: more -> first more
        in
        left, first rest
      | I_node c :: rest -> around (Some c) rest
      | I_text _ :: rest -> around left rest
    in
    let left, right = around None p.n_items in
    let tags = List.sort_uniq String.compare [ tag n; fragment_tag fragment ] in
    let before = List.map (fun t -> (t, positions_before p t)) tags in
    detach_subtree u acc n;
    (* Keep the target's item position: splice the fragment right where
       the old subtree sat, then drop the old subtree. *)
    let froot = stage_insert u acc p ~before:(Some n) ~left ~right fragment in
    p.n_items <- List.filter (function I_node c -> not (c == n) | I_text _ -> true) p.n_items;
    List.iter (fun (t, before) -> refresh_siblings u acc p t ~before) before;
    replace_text u acc p ~off:(offset_in_parent p froot) ~old:old_text
      ~new_:(string_value froot);
    let fk =
      Some
        ( relation_of u froot,
          Mapping.parent_fk mapping ~child:froot.n_def ~parent:p.n_def )
    in
    finish u acc ~routing:(routing_for ~parent:p ~left ~right ~fk)
  | Set_attribute { target; name; value } ->
    let n = find u target in
    if not (List.mem name n.n_def.Graph.attrs) then
      error "element %s declares no attribute %s" (tag n) name;
    let acc = acc_create () in
    n.n_attrs <-
      (let without = List.remove_assoc name n.n_attrs in
       match value with None -> without | Some v -> without @ [ (name, v) ]);
    add_cell u acc n
      (Set
         ( Mapping.attr_column name,
           match value with Some v -> Value.Str v | None -> Value.Null ));
    finish u acc ~routing:None
  | Set_text { target; text } ->
    let n = find u target in
    let old = string_value n in
    let acc = acc_create () in
    let elems = List.filter (function I_node _ -> true | I_text _ -> false) n.n_items in
    n.n_items <- (if String.equal text "" then elems else I_text text :: elems);
    add_cell u acc n (Set (Mapping.dtext_column, Value.Str (direct_text n)));
    replace_text u acc n ~off:0 ~old ~new_:(string_value n);
    finish u acc ~routing:None

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let find_row db table elem =
  match Database.table_opt db table with
  | None -> None
  | Some tbl -> (
    match Table.index_on tbl [ "id" ] with
    | Some tree -> (
      match Btree.find_equal tree [| Value.Int elem |] with
      | r :: _ -> Some (tbl, r)
      | [] -> None)
    | None ->
      let found = ref None in
      Table.iter_rows
        (fun r row -> if row.(0) = Value.Int elem then found := Some (tbl, r))
        tbl;
      !found)

let commit ?(inserts = true) database cs =
  Database.with_write database (fun () ->
      (* Resolve every addressed row first, and refuse the whole
         changeset before anything is applied if a cell edit does not
         fit its stored row: a splice staged against other text than the
         relations hold would otherwise corrupt the value. *)
      let resolved =
        List.map
          (fun op ->
            match op with
            | Row_insert _ -> op, None
            | Row_update { table; elem; _ } | Row_delete { table; elem } ->
              op, find_row database table elem)
          cs.cs_ops
      in
      List.iter
        (function
          | Row_update { table; elem; cells }, Some (tbl, r) -> (
            try Table.check_cells tbl r cells
            with Invalid_argument m -> error "commit: element %d in %s: %s" elem table m)
          | _ -> ())
        resolved;
      let before = Hashtbl.create 8 in
      let note name =
        if not (Hashtbl.mem before name) then
          match Database.table_opt database name with
          | Some tbl -> Hashtbl.add before name (Table.version tbl)
          | None -> ()
      in
      if cs.cs_new_paths <> [] || cs.cs_dead_paths <> [] then note Mapping.paths_table;
      List.iter
        (function
          | Row_insert { table; _ } | Row_update { table; _ } | Row_delete { table; _ }
            ->
            note table)
        cs.cs_ops;
      (* Paths rows are replicated on every store. *)
      List.iter
        (fun (id, path) ->
          match Database.table_opt database Mapping.paths_table with
          | Some paths -> ignore (Table.insert paths [| Value.Int id; Value.Str path |])
          | None -> ())
        cs.cs_new_paths;
      List.iter
        (fun (op, target) ->
          match op, target with
          | Row_insert { table; values }, _ ->
            if inserts then
              Option.iter
                (fun tbl -> ignore (Table.insert tbl values))
                (Database.table_opt database table)
          | Row_update { cells; _ }, Some (tbl, r) -> ignore (Table.update tbl r cells)
          | Row_delete _, Some (tbl, r) -> ignore (Table.delete tbl r)
          | (Row_update _ | Row_delete _), None -> ())
        resolved;
      List.iter
        (fun pid ->
          Option.iter
            (fun (tbl, r) -> ignore (Table.delete tbl r))
            (find_row database Mapping.paths_table pid))
        cs.cs_dead_paths;
      let touched =
        Hashtbl.fold
          (fun name v0 acc ->
            match Database.table_opt database name with
            | Some tbl when Table.version tbl <> v0 -> (name, v0, Table.version tbl) :: acc
            | Some _ | None -> acc)
          before []
      in
      ignore (Database.record_commit database ~touched ~pathids:cs.cs_pathids))

let exec u op =
  let cs = stage u op in
  commit (db u) cs;
  outcome_of cs

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let add_document u ~doc_id ~offset tree =
  let schema = Mapping.schema u.store.Loader.mapping in
  let root_def = Graph.root schema in
  u.next_id <- offset + 1;
  let intern path =
    match Hashtbl.find_opt u.path_ids path with
    | Some id -> id
    | None -> error "path %s missing from the interned Paths relation" path
  in
  let root =
    build_subtree u ~doc:doc_id ~def:(Some root_def) ~path:("/" ^ root_def.Graph.name)
      ~root_label:(Ordpath.child (Ordpath.of_components [ (2 * doc_id) - 1 ]) 1)
      ~intern tree
  in
  u.roots <- u.roots @ [ root ]

let of_store store trees =
  if List.length trees <> List.length store.Loader.docs then
    error "of_store: %d trees for %d loaded documents" (List.length trees)
      (List.length store.Loader.docs);
  let u =
    {
      store;
      roots = [];
      by_id = Hashtbl.create 1024;
      path_ids = Hashtbl.create 64;
      path_refs = Hashtbl.create 64;
      next_id = 1;
      next_path_id = 1;
    }
  in
  let paths = Database.table store.Loader.db Mapping.paths_table in
  Table.iter_rows
    (fun _ row ->
      match row.(0), row.(1) with
      | Value.Int id, Value.Str p -> Hashtbl.replace u.path_ids p id
      | _ -> ())
    paths;
  u.next_path_id <- Table.row_count paths + 1;
  List.iteri
    (fun i tree ->
      let offset =
        List.fold_left
          (fun acc d -> acc + Doc.size d)
          0
          (List.filteri (fun j _ -> j < i) store.Loader.docs)
      in
      add_document u ~doc_id:(i + 1) ~offset tree)
    trees;
  let expected =
    List.fold_left (fun acc d -> acc + Doc.size d) 0 store.Loader.docs
  in
  if Hashtbl.length u.by_id <> expected then
    error "of_store: shadow has %d elements, store has %d" (Hashtbl.length u.by_id)
      expected;
  u.next_id <- expected + 1;
  u

let create schema trees =
  let store =
    List.fold_left
      (fun s tree -> Loader.load s (Doc.of_tree tree))
      (Loader.create (Mapping.of_schema schema))
      trees
  in
  of_store store trees

let extend u store' tree =
  (* [store'] is this store with one more document bulk-loaded through
     Loader.load. The loader offsets the new document's ids by the sum
     of the previous documents' sizes; ids allocated by caret inserts
     live past that offset and would collide, so bulk growth is only
     allowed while the id space is pristine. *)
  let loaded_offset =
    List.fold_left
      (fun acc d -> acc + Doc.size d)
      0
      (match List.rev store'.Loader.docs with [] -> [] | _ :: prev -> List.rev prev)
  in
  if u.next_id - 1 > loaded_offset then
    error
      "cannot bulk-load after incremental inserts (next id %d is past the \
       loader offset %d); use Insert_subtree"
      u.next_id loaded_offset;
  u.store <- store';
  let doc_id = List.length store'.Loader.docs in
  (* New paths were interned by the loader; refresh the shadow copy. *)
  let paths = Database.table store'.Loader.db Mapping.paths_table in
  Table.iter_rows
    (fun _ row ->
      match row.(0), row.(1) with
      | Value.Int id, Value.Str p ->
        if not (Hashtbl.mem u.path_ids p) then Hashtbl.replace u.path_ids p id
      | _ -> ())
    paths;
  u.next_path_id <- max u.next_path_id (Table.row_count paths + 1);
  add_document u ~doc_id ~offset:loaded_offset tree

let load u tree =
  let doc = Doc.of_tree tree in
  let store' = Database.with_write (db u) (fun () -> Loader.load u.store doc) in
  extend u store' tree

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(*                                                                     *)
(* A [shadow] is the pure, store-independent image of the forest: ids, *)
(* labels, attrs, and the text/element interleaving the relations      *)
(* cannot answer from. The durability layer persists it next to the    *)
(* database snapshot so a recovered store can keep staging mutations.  *)
(* Schema defs and paths are NOT stored — [of_shadow] re-resolves them *)
(* against the adopted store's mapping and Paths relation and fails    *)
(* loudly on any disagreement, so a snapshot can never smuggle in a    *)
(* shape the schema would have rejected.                               *)
(* ------------------------------------------------------------------ *)

type shadow_item = Sh_text of string | Sh_node of shadow_node

and shadow_node = {
  sn_id : int;
  sn_doc : int;
  sn_tag : string;
  sn_label : string;  (** raw ORDPATH bytes, {!Ordpath.to_raw} *)
  sn_path_id : int;
  sn_attrs : (string * string) list;
  sn_items : shadow_item list;
}

type shadow = {
  sh_roots : shadow_node list;  (** document order *)
  sh_next_id : int;
  sh_next_path_id : int;
}

let shadow u =
  let rec snap n =
    {
      sn_id = n.n_id;
      sn_doc = n.n_doc;
      sn_tag = tag n;
      sn_label = Ordpath.to_raw n.n_label;
      sn_path_id = n.n_path_id;
      sn_attrs = n.n_attrs;
      sn_items =
        List.map (function I_text s -> Sh_text s | I_node c -> Sh_node (snap c)) n.n_items;
    }
  in
  {
    sh_roots = List.map snap u.roots;
    sh_next_id = u.next_id;
    sh_next_path_id = u.next_path_id;
  }

let of_shadow store sh =
  let u =
    {
      store;
      roots = [];
      by_id = Hashtbl.create 1024;
      path_ids = Hashtbl.create 64;
      path_refs = Hashtbl.create 64;
      next_id = sh.sh_next_id;
      next_path_id = sh.sh_next_path_id;
    }
  in
  (match Database.table_opt store.Loader.db Mapping.paths_table with
   | Some paths ->
     Table.iter_rows
       (fun _ row ->
         match row.(0), row.(1) with
         | Value.Int id, Value.Str p -> Hashtbl.replace u.path_ids p id
         | _ -> ())
       paths
   | None -> error "of_shadow: store has no %s relation" Mapping.paths_table);
  let schema = Mapping.schema store.Loader.mapping in
  let rec rebuild def path parent sn =
    if not (String.equal def.Graph.name sn.sn_tag) then
      error "of_shadow: snapshot node %d is a %s where the schema expects %s" sn.sn_id
        sn.sn_tag def.Graph.name;
    (match Hashtbl.find_opt u.path_ids path with
     | Some pid when pid = sn.sn_path_id -> ()
     | Some pid ->
       error "of_shadow: node %d at %s carries path id %d but Paths says %d" sn.sn_id
         path sn.sn_path_id pid
     | None -> error "of_shadow: path %s of node %d is missing from Paths" path sn.sn_id);
    if sn.sn_id <= 0 || sn.sn_id >= sh.sh_next_id then
      error "of_shadow: element id %d outside the allocated id space" sn.sn_id;
    if Hashtbl.mem u.by_id sn.sn_id then
      error "of_shadow: duplicate element id %d" sn.sn_id;
    let label =
      try Ordpath.of_raw sn.sn_label
      with Ordpath.Invalid m -> error "of_shadow: node %d label: %s" sn.sn_id m
    in
    let n =
      {
        n_id = sn.sn_id;
        n_doc = sn.sn_doc;
        n_def = def;
        n_label = label;
        n_path = path;
        n_path_id = sn.sn_path_id;
        n_attrs = List.filter (fun (a, _) -> List.mem a def.Graph.attrs) sn.sn_attrs;
        n_items = [];
        n_parent = parent;
        n_len = 0;
      }
    in
    n.n_items <-
      List.map
        (function
          | Sh_text s -> I_text s
          | Sh_node c ->
            let cdef =
              match child_def schema def c.sn_tag with
              | Some d -> d
              | None ->
                error "of_shadow: element %s at %s does not match the schema" c.sn_tag
                  path
            in
            I_node (rebuild cdef (path ^ "/" ^ c.sn_tag) (Some n) c))
        sn.sn_items;
    n.n_len <- items_len n.n_items;
    Hashtbl.replace u.by_id sn.sn_id n;
    Hashtbl.replace u.path_refs sn.sn_path_id
      (1 + Option.value ~default:0 (Hashtbl.find_opt u.path_refs sn.sn_path_id));
    n
  in
  let root_def = Graph.root schema in
  u.roots <- List.map (fun sn -> rebuild root_def ("/" ^ root_def.Graph.name) None sn) sh.sh_roots;
  (* Re-derive docs so size-based guards (extend's id-offset check) see
     the recovered forest, not the pre-crash bulk-load history. *)
  u.store <- { store with Loader.docs = List.map Doc.of_tree (current_trees u) };
  u
