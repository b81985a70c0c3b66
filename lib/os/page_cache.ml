let page_bytes = 4096

module Index = Hashtbl.Make (Int)

(* Circular doubly-linked LRU list through a sentinel, with an int-keyed
   index: [sentinel.next] is the most recent page, [sentinel.prev] the
   least recent. With a sentinel the links need no options, so moving a
   page to the front allocates nothing. *)
type node = { page : int; mutable prev : node; mutable next : node }

type t = {
  capacity : int; (* pages *)
  index : node Index.t;
  sentinel : node;
  mutable size : int;
  mutable lookups : int;
  mutable misses : int;
}

let create ~capacity_bytes =
  let rec sentinel = { page = -1; prev = sentinel; next = sentinel } in
  {
    capacity = max 1 (capacity_bytes / page_bytes);
    index = Index.create 4096;
    sentinel;
    size = 0;
    lookups = 0;
    misses = 0;
  }

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  let s = t.sentinel in
  n.next <- s.next;
  n.prev <- s;
  s.next.prev <- n;
  s.next <- n

let evict_lru t =
  let n = t.sentinel.prev in
  if n != t.sentinel then begin
    unlink n;
    Index.remove t.index n.page;
    t.size <- t.size - 1
  end

let touch_page t page =
  t.lookups <- t.lookups + 1;
  match Index.find t.index page with
  | n ->
      unlink n;
      push_front t n;
      true
  | exception Not_found ->
      t.misses <- t.misses + 1;
      if t.size >= t.capacity then evict_lru t;
      let n = { page; prev = t.sentinel; next = t.sentinel } in
      Index.add t.index page n;
      push_front t n;
      t.size <- t.size + 1;
      false

let read t ~offset ~bytes =
  if bytes <= 0 then 0
  else begin
    let first = offset / page_bytes in
    let last = (offset + bytes - 1) / page_bytes in
    let missed = ref 0 in
    for p = first to last do
      if not (touch_page t p) then incr missed
    done;
    !missed * page_bytes
  end

let lookups t = t.lookups
let misses t = t.misses

let hit_rate t =
  if t.lookups = 0 then 0.0 else 1.0 -. (float_of_int t.misses /. float_of_int t.lookups)

let reset_stats t =
  t.lookups <- 0;
  t.misses <- 0

let flush t =
  Index.reset t.index;
  t.sentinel.next <- t.sentinel;
  t.sentinel.prev <- t.sentinel;
  t.size <- 0
