(** WAL segment framing: the file starts with the magic ["PPFXLOG2"],
    followed by records framed as [u32le length][u32le crc32][payload] —
    the same length-prefix discipline as the wire protocol, with a
    checksum so a torn or bit-flipped tail is detected, not replayed. *)

val magic : string
(** Names the record format as well as the framing: it changes whenever
    {!Record} changes incompatibly ([PPFXLOG1] segments carry whole-row
    updates, [PPFXLOG2] cell-level ones). *)

val check_header : string -> (unit, string) result
(** [Ok ()] when the segment bytes start with {!magic}; otherwise an
    error naming the header found. *)

val frame : string -> string
(** The framed bytes of one payload: 8-byte header + payload. *)

val max_frame : int
(** Upper bound a frame length field may claim; larger is corruption. *)

type scan = {
  frames : (string * int) list;
      (** payloads in order, each with the file offset just past its frame *)
  valid_end : int;  (** end of the last whole, CRC-valid frame *)
  file_len : int;  (** [file_len - valid_end] is the torn/corrupt tail *)
}

val scan_string : string -> scan
(** Scan stops (without raising) at the first incomplete frame, bad
    length, or CRC mismatch; a missing or bad magic yields no frames. *)

val read_file : string -> string
(** The whole file. Raises [Sys_error] if it cannot be read. *)
