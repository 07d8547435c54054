(** POSIX-ERE regular expressions: the pattern language of the relational
    substrate's [REGEXP_LIKE] (Section 4.1 of the paper).

    Patterns follow the POSIX Extended Regular Expression syntax used by
    Oracle 10g's [REGEXP_LIKE]: literals, [.], bracket expressions,
    [* + ? {m,n}] repetition, alternation, grouping and the [^]/[$]
    anchors. Matching uses a Thompson NFA, linear in the subject length. *)

type t
(** A compiled pattern. *)

exception Parse_error of string
(** Raised by {!compile} on a malformed pattern. *)

val compile : string -> t
(** Compile a pattern. Raises {!Parse_error} on syntax errors. *)

val compile_cached : string -> t
(** Like {!compile}, but serves the parsed AST, Thompson NFA {e and
    frozen DFAs} from a process-wide, mutex-protected cache keyed on the
    pattern text — safe to call from any domain. The frozen DFAs (dense,
    immutable subset constructions) are built once on first miss and
    shared by every handle and every domain thereafter; executing through
    them touches no mutable state. Patterns whose subset construction
    exceeds an internal state cap skip freezing and fall back to a
    per-handle lazy DFA. Raises {!Parse_error} on syntax errors (failures
    are not cached). *)

val has_frozen : t -> bool
(** Whether this handle executes through a shared frozen DFA (true for
    {!compile_cached} handles below the state cap; false for {!compile}
    handles, which keep the lazy NFA-simulation path). *)

val frozen_states : t -> (int * int) option
(** State counts of the shared frozen search and match DFAs, or [None]
    when the handle has no frozen DFAs. Deterministic per pattern, so
    tests and benchmarks can pin the work a compile does. *)

val required_literals : t -> string list list
(** A CNF of required substrings: each returned group is a list of
    alternatives, at least one of which must occur as a substring of any
    subject accepted by {!search}. Content indexes intersect posting
    lists across groups (union within a group) to get candidate rows
    before verifying with the DFA. Groups whose alternatives are shorter
    than 3 bytes are dropped; an empty result means the pattern forces no
    usable literal and callers must fall back to scanning. Conservative:
    dropping any group is always sound. *)

val cache_hits : unit -> int
(** Number of {!compile_cached} calls served from the shared cache. *)

val cache_misses : unit -> int
(** Number of {!compile_cached} calls that had to parse and build. *)

val cache_size : unit -> int
(** Number of distinct patterns currently cached. *)

val cache_clear : unit -> unit
(** Drop every cached pattern and reset the hit/miss counters (tests and
    benchmarks). *)

val search : t -> string -> bool
(** [search re subject] is [true] iff some substring of [subject] matches —
    the semantics of SQL [REGEXP_LIKE(subject, pattern)]. Anchors restrict
    matches to the subject's ends. *)

val matches : t -> string -> bool
(** [matches re subject] is [true] iff the entire subject matches. *)

val pattern : t -> string
(** The source pattern the value was compiled from. *)

val quote : string -> string
(** Escape a string so that it matches itself literally inside a pattern. *)

val ast : t -> Syntax.t
(** The parsed abstract syntax tree (exposed for tests and tooling). *)
