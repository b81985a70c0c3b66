let page_bytes = 4096

type t = {
  l1 : Cache.t;
  stlb : Cache.t;
  stlb_penalty : int;
  walk_cycles : int;
  mutable lookups : int;
  mutable misses : int;
  hit : bool ref; (* scratch for [Cache.access], allocated once *)
}

(* Reuse the set-associative tag store: one "line" per page by feeding it
   page-granular pseudo-addresses. *)
let page_key addr = addr / page_bytes * Cache.line_bytes

let create ?(l1_entries = 64) ?(stlb_entries = 1536) ?(walk_cycles = 30) () =
  {
    l1 = Cache.create ~size_bytes:(l1_entries * Cache.line_bytes) ~assoc:4 ();
    stlb = Cache.create ~size_bytes:(stlb_entries * Cache.line_bytes) ~assoc:12 ();
    stlb_penalty = 7;
    walk_cycles;
    lookups = 0;
    misses = 0;
    hit = ref false;
  }

let access t addr =
  let key = page_key addr in
  t.lookups <- t.lookups + 1;
  let hit = t.hit in
  Cache.access t.l1 key ~hit;
  if !hit then 0
  else begin
    Cache.access t.stlb key ~hit;
    if !hit then t.stlb_penalty
    else begin
      t.misses <- t.misses + 1;
      t.walk_cycles
    end
  end

let lookups t = t.lookups
let misses t = t.misses

let flush t =
  Cache.flush t.l1;
  Cache.flush t.stlb;
  t.lookups <- 0;
  t.misses <- 0
