let magic = "PPFXLOG2"

let u32le n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (n land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 3 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.to_string b

let read_u32le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* An oversized length field is necessarily garbage — no single commit
   changeset approaches this — and bounding it keeps a corrupt frame
   from looking like a giant half-written record. *)
let max_frame = 1 lsl 30

let frame payload =
  u32le (String.length payload) ^ u32le (Crc32.digest payload) ^ payload

type scan = {
  frames : (string * int) list;
      (** payloads in order, each with the file offset just past its frame *)
  valid_end : int;  (** offset of the end of the last whole, CRC-valid frame *)
  file_len : int;
}

let scan_string s =
  let len = String.length s in
  let mlen = String.length magic in
  if len < mlen || not (String.equal (String.sub s 0 mlen) magic) then
    { frames = []; valid_end = mlen; file_len = len }
  else begin
    let frames = ref [] in
    let pos = ref mlen in
    let stop = ref false in
    while not !stop do
      if !pos + 8 > len then stop := true
      else begin
        let flen = read_u32le s !pos in
        let crc = read_u32le s (!pos + 4) in
        if flen < 0 || flen > max_frame || !pos + 8 + flen > len then stop := true
        else if Crc32.update 0 s (!pos + 8) flen <> crc then stop := true
        else begin
          frames := (String.sub s (!pos + 8) flen, !pos + 8 + flen) :: !frames;
          pos := !pos + 8 + flen
        end
      end
    done;
    { frames = List.rev !frames; valid_end = !pos; file_len = len }
  end

let check_header s =
  let mlen = String.length magic in
  let found = String.sub s 0 (min mlen (String.length s)) in
  if String.equal found magic then Ok ()
  else Error (Printf.sprintf "unexpected header %S (expected %S)" found magic)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
