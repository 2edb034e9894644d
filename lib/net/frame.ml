let max_frame = 16 * 1024 * 1024

exception Oversized of int

let header_size = 4

let encode payload =
  let len = String.length payload in
  if len > max_frame then raise (Oversized len);
  let b = Bytes.create (header_size + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b header_size len;
  Bytes.unsafe_to_string b

let encode_into buf payload =
  let len = String.length payload in
  if len > max_frame then raise (Oversized len);
  Buffer.add_int32_be buf (Int32.of_int len);
  Buffer.add_string buf payload

(* [acc] buffers undecoded bytes from [pos] (consumed prefixes are
   compacted away on each decode pass, so the buffer never grows past one
   partial frame plus whatever one [feed] delivered) *)
type reader = {
  mutable acc : Bytes.t;
  mutable pos : int;  (** start of undecoded data in [acc] *)
  mutable fill : int;  (** end of valid data in [acc] *)
  frames : string Queue.t;
  mutable poisoned : int option;  (** the oversized length, once seen *)
}

let reader () =
  {
    acc = Bytes.create 4096;
    pos = 0;
    fill = 0;
    frames = Queue.create ();
    poisoned = None;
  }

let pending r = r.fill - r.pos

let ensure_room r extra =
  (* compact first, grow only if the live suffix plus [extra] still does
     not fit *)
  let live = pending r in
  if r.pos > 0 then begin
    Bytes.blit r.acc r.pos r.acc 0 live;
    r.pos <- 0;
    r.fill <- live
  end;
  if live + extra > Bytes.length r.acc then begin
    let cap = ref (max 4096 (2 * Bytes.length r.acc)) in
    while live + extra > !cap do
      cap := 2 * !cap
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit r.acc 0 bigger 0 live;
    r.acc <- bigger
  end

let rec decode r =
  let avail = pending r in
  if avail >= header_size then begin
    let len = Int32.to_int (Bytes.get_int32_be r.acc r.pos) in
    if len < 0 || len > max_frame then begin
      r.poisoned <- Some len;
      raise (Oversized len)
    end;
    if avail >= header_size + len then begin
      Queue.push (Bytes.sub_string r.acc (r.pos + header_size) len) r.frames;
      r.pos <- r.pos + header_size + len;
      decode r
    end
  end

let feed r buf off len =
  (match r.poisoned with Some n -> raise (Oversized n) | None -> ());
  if len < 0 || off < 0 || off + len > Bytes.length buf then
    invalid_arg "Frame.feed";
  ensure_room r len;
  Bytes.blit buf off r.acc r.fill len;
  r.fill <- r.fill + len;
  decode r

let feed_string r s = feed r (Bytes.unsafe_of_string s) 0 (String.length s)

let next r = Queue.take_opt r.frames
