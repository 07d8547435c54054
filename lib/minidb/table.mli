(** Heap tables with typed columns and attached B+tree indexes.

    A table may additionally be declared {e partitioned} by an int fk
    column (e.g. the shredder's element fact tables partitioned by
    [path_id]): alongside the heap, the table maintains one segment of
    live row ids per distinct partition-key value, each kept sorted on a
    designated sort column (e.g. [dewey_pos], whose byte order is
    document order). Segments are maintained incrementally by {!insert},
    {!delete} and {!update} — bulk loads in document order append in
    O(1); out-of-order inserts (ORDPATH caret labels from the write
    path) binary-search their slot. Row ids, indexes and {!iter_rows}
    are unaffected; the segments are a physical access path the engine
    uses for partition pruning and order-preserving scans. *)

type column = { name : string; ty : Value.ty }

type partition_spec = { part_col : string; part_sort : string }
(** Partition by [part_col] (must be an int column); keep each
    partition's rows sorted on [part_sort] (any column; compared with
    {!Value.compare_total}, ties by row id). Rows whose partition key is
    [Null] or non-int live in an overflow segment that is never matched
    by a partition scan. *)

type t

val create : ?partition:partition_spec -> name:string -> columns:column list -> unit -> t

val name : t -> string

val version : t -> int
(** Modification counter: bumped on every {!insert}, {!delete} and
    {!create_index}. {!Database.epoch} sums it across tables so prepared
    plans can detect that their compile-time assumptions are stale. *)

val columns : t -> column list
val column_index : t -> string -> int option
val column_ty : t -> string -> Value.ty option

val insert : t -> Value.t array -> int
(** Append a row; returns its row id. Values must match the column count;
    non-null values must match the column types. All indexes are
    maintained. *)

val delete : t -> int -> bool
(** Tombstone a row: it disappears from every index and from
    {!iter_rows}; its id is never reused. Returns false when the id is
    out of range or already deleted. *)

(** One column edit of a row update. *)
type cell =
  | Set of string * Value.t  (** replace the named column's value *)
  | Splice of { col : string; off : int; del : int; ins : string; len_before : int }
      (** replace [del] bytes at byte offset [off] of a text column's
          value with [ins]; [len_before] is the value's byte length
          before the edit and must match the stored value *)

val update : t -> int -> cell list -> bool
(** Apply [cells], in order, to a live row in place, preserving its id.
    Only the touched columns cost work: a B+tree or the partition
    segments are maintained only when a touched column is in their key,
    and a splice keeps a content index current by re-tokenizing the
    edited window alone (widened to whitespace for tokens, by 2 bytes
    for trigrams). Statistics caches are invalidated and the version is
    bumped. Returns false when the id is out of range or tombstoned;
    raises [Invalid_argument], leaving the row untouched, on an unknown
    column, a mistyped value, or a splice that does not fit the stored
    value (wrong [len_before], window out of range, non-text value). *)

val check_cells : t -> int -> cell list -> unit
(** Raise exactly when {!update} would, without applying
    anything; a no-op for a dead row. *)

val postings_changed : t -> int
(** Content-index entries (term, row) added or removed since the table
    was created — the index work writes have caused. *)

val live_count : t -> int
(** Rows minus tombstones. *)

val row_count : t -> int
val row : t -> int -> Value.t array
(** Row by id. Do not mutate. *)

val iter_rows : (int -> Value.t array -> unit) -> t -> unit

val create_index : t -> string list -> unit
(** Create (and backfill) a B+tree index on the given columns. Idempotent
    for an identical column list. *)

val index_on : t -> string list -> Btree.t option
(** Exact-columns index lookup. *)

val index_with_prefix : t -> string list -> (Btree.t * int) option
(** An index whose leading columns are exactly the given list; returns the
    index and its total width. Preferred for range scans where only a
    prefix is constrained. *)

val indexes : t -> (string list * Btree.t) list

val distinct_estimate : t -> string -> int
(** Estimated number of distinct non-null values in a column (computed by
    one scan, cached until the row count changes). Used by the planner's
    selectivity model. Returns 1 for unknown columns. *)

val partition_spec : t -> partition_spec option

val partition_count : t -> int
(** Number of non-empty partitions (the overflow segment not included);
    0 for unpartitioned tables. *)

val partition_keys : t -> int list
(** Keys of non-empty partitions, ascending. *)

val partition_size : t -> int -> int
(** Live rows in the given partition (0 for absent keys). *)

val partition_view : t -> int -> int array * int
(** [(ids, len)]: the partition's live row ids in sort order occupy
    [ids.(0 .. len-1)]. The array is the table's internal segment — do
    not mutate, and do not hold across a write; valid under the owning
    database's read lock. *)

val iter_partition : (int -> Value.t array -> unit) -> t -> int -> unit
(** Iterate one partition's live rows in sort order. *)

val check_partitions : t -> (unit, string) result
(** Test hook: verify the segment invariant — every live row filed under
    exactly one segment matching its partition key, every segment sorted
    strictly ascending on (sort value, id), no dead ids. [Ok ()] for
    unpartitioned tables. *)

(** {2 Content (value) indexes}

    Inverted posting lists over a text column, maintained incrementally
    by {!insert}, {!delete} and {!update} exactly like the B+trees and
    partition segments. The index also counts each posted term's
    occurrences per row, so an edit can tell at once whether a term it
    removed still occurs elsewhere in the value. [Token] indexes the
    column's whitespace-separated tokens; [Trigram] indexes every 3-byte
    substring. The engine probes them with the required-literal groups
    extracted from a [REGEXP_LIKE] pattern to get a candidate-row
    superset, then verifies candidates with the compiled DFA instead of
    scanning every row. *)

type content_kind = Token | Trigram

val add_content_index : t -> col:string -> kind:content_kind -> unit
(** Declare (and backfill) a content index on a text column. Idempotent
    for an identical (column, kind) pair; raises [Invalid_argument] if
    the column is missing or not [Tstr]. *)

val content_indexes : t -> (string * content_kind) list
(** Declared content indexes, in declaration order (for persistence and
    EXPLAIN). *)

val content_candidates : t -> col:string -> string list list -> int array option
(** [content_candidates t ~col groups] resolves a required-literal CNF
    (groups of alternatives, as {!Ppfx_regex.Regex.required_literals}
    returns) against the column's content indexes: per group, union of
    the alternatives' posting rows; across groups, intersection. The
    result is a sorted superset of the matching live rows — callers must
    verify each candidate. [None] when no index on the column can answer
    (caller falls back to a scan); dropping unanswerable groups is sound,
    an unanswerable alternative poisons its group. *)

val check_content_indexes : t -> (unit, string) result
(** Test hook: rebuild the expected postings from the live rows and
    require every stored posting list to match exactly (same terms, same
    ascending ids, same occurrence counts). [Ok ()] when the table has
    no content indexes. *)
