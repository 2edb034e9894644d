(* A size-bounded LRU memo table: hashtable for lookup, intrusive
   doubly-linked list for recency order.  Not thread-safe on its own; the
   engine serializes access under its lock (cache operations are tiny next
   to the homology computations they memoize, so one lock is plenty).

   Hit/miss/eviction accounting lives in the {!Obs} registry under the
   [metrics] prefix, not in private fields: instances sharing a prefix
   share the counters, and the serve [metrics] op sees them for free. *)

open Psph_obs

type ('k, 'v) node = {
  nkey : 'k;
  mutable nvalue : 'v;
  mutable prev : ('k, 'v) node option; (* towards MRU *)
  mutable next : ('k, 'v) node option; (* towards LRU *)
}

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable mru : ('k, 'v) node option;
  mutable lru : ('k, 'v) node option;
  hits : Obs.counter;
  misses : Obs.counter;
  evictions : Obs.counter;
}

let create ?(metrics = "lru") ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  {
    capacity;
    tbl = Hashtbl.create (min capacity 1024);
    mru = None;
    lru = None;
    hits = Obs.counter (metrics ^ ".hits");
    misses = Obs.counter (metrics ^ ".misses");
    evictions = Obs.counter (metrics ^ ".evictions");
  }

let length t = Hashtbl.length t.tbl

let capacity t = t.capacity

let hits t = Obs.counter_value t.hits

let misses t = Obs.counter_value t.misses

let evictions t = Obs.counter_value t.evictions

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

let mem t k = Hashtbl.mem t.tbl k

let find_opt t k =
  match Hashtbl.find_opt t.tbl k with
  | None ->
      Obs.incr t.misses;
      None
  | Some n ->
      Obs.incr t.hits;
      if t.mru != Some n then begin
        unlink t n;
        push_front t n
      end;
      Some n.nvalue

let evict_lru t =
  match t.lru with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.nkey;
      Obs.incr t.evictions

let add t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      n.nvalue <- v;
      if t.mru != Some n then begin
        unlink t n;
        push_front t n
      end
  | None ->
      if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
      let n = { nkey = k; nvalue = v; prev = None; next = None } in
      Hashtbl.add t.tbl k n;
      push_front t n

let to_list t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk ((n.nkey, n.nvalue) :: acc) n.next
  in
  walk [] t.mru
