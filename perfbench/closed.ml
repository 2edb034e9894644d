(* The closed-loop driver of cold_numeric and routed_json: [callers]
   threads, each at depth 1, take the next request of a cyclic order
   from a shared counter and send it only after the previous answer.

   The window runs for at least [min_seconds] and ends on a boundary of
   [slice_cycles] whole cycles, at least one such slice long. *)

module Codec = Psph_net.Codec
module Obs = Psph_obs.Obs

type window = {
  outcome : Outcome.t;
  items : int array;  (** item index of each request *)
  start : float array;  (** monotonic send time of each request *)
  stop : float array;  (** monotonic answer time; nan unless ok *)
  replies : Codec.reply option array;
}

type 'c caller = {
  open_ : unit -> 'c;
  call : 'c -> int -> (Codec.reply, [ `Timeout | `Connection | `Protocol ]) result;
      (** send item [i], wait for its answer *)
  close : 'c -> unit;
}

let min_beyond = 10

(* a slice of a window: the fewest whole cycles that keep [min_beyond]
   samples beyond the tail percentile *)
let cycles_per_slice ~cycle ~tail_p =
  let rec go k = if Stats.beyond (k * cycle) tail_p >= min_beyond then k else go (k + 1) in
  go 1

(* [fixed] runs exactly that many requests (warm-up passes) *)
let run ?fixed ?(traced = false) ?(slice_cycles = 1) ~callers ~order ~min_seconds
    caller =
  let cycle = Array.length order in
  let lock = Mutex.create () in
  let next = ref 0 in
  let results = ref [] in
  let t0 = Obs.monotonic () in
  let take () =
    Mutex.lock lock;
    let i = !next in
    let stop =
      match fixed with
      | Some k -> i >= k
      | None ->
          Obs.monotonic () -. t0 >= min_seconds
          && i > 0
          && i mod (slice_cycles * cycle) = 0
    in
    if not stop then incr next;
    Mutex.unlock lock;
    if stop then None else Some i
  in
  let worker () =
    let c = caller.open_ () in
    let rec loop () =
      match take () with
      | None -> ()
      | Some i ->
          let item = Tables.cyclic order i in
          let s = Obs.monotonic () in
          let r =
            if traced then
              Obs.with_span "load.request" (fun _ -> caller.call c item)
            else caller.call c item
          in
          let e = Obs.monotonic () in
          Mutex.lock lock;
          results := (i, item, s, e, r) :: !results;
          Mutex.unlock lock;
          loop ()
    in
    Fun.protect ~finally:(fun () -> caller.close c) loop
  in
  let threads = List.init callers (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let n = !next in
  let outcome = Outcome.create () in
  let items = Array.make n 0 in
  let start = Array.make n 0. and stop = Array.make n nan in
  let replies = Array.make n None in
  List.iter
    (fun (i, item, s, e, r) ->
      items.(i) <- item;
      start.(i) <- s;
      outcome.sent <- outcome.sent + 1;
      match r with
      | Ok (Codec.Result _ as reply) ->
          outcome.ok <- outcome.ok + 1;
          stop.(i) <- e;
          replies.(i) <- Some reply
      | Ok (Codec.Failed _ as reply) ->
          outcome.server_error <- outcome.server_error + 1;
          replies.(i) <- Some reply
      | Error `Timeout -> outcome.timeout <- outcome.timeout + 1
      | Error `Connection -> outcome.connection <- outcome.connection + 1
      | Error `Protocol -> outcome.protocol <- outcome.protocol + 1)
    !results;
  { outcome; items; start; stop; replies }

let of_client_error = function
  | Psph_net.Client.Timeout -> `Timeout
  | Psph_net.Client.Connection _ -> `Connection
  | Psph_net.Client.Protocol _ -> `Protocol
