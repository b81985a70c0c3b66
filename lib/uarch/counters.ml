(* The float counters live in their own all-float record: OCaml stores such
   records flat (unboxed doubles), so the per-instruction updates in
   [Core_model.exec_block] are raw double stores — no box allocation, no
   write barrier. Keeping them in the mixed int/float record cost one minor
   allocation plus [caml_modify] per update, which dominated GC pressure in
   the measurement hot loop. *)
type slots = {
  mutable cycles : float;
  mutable retiring : float;
  mutable frontend : float;
  mutable bad_spec : float;
  mutable backend : float;
}

type t = {
  mutable insts : int;
  mutable uops : int;
  mutable branches : int;
  mutable mispredicts : int;
  mutable btb_misses : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable l1i_accesses : int;
  mutable l1i_misses : int;
  mutable l1d_accesses : int;
  mutable l1d_misses : int;
  mutable l2_accesses : int;
  mutable l2_misses : int;
  mutable llc_accesses : int;
  mutable llc_misses : int;
  mutable coherence_misses : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  s : slots;
}

let create () =
  {
    insts = 0;
    uops = 0;
    branches = 0;
    mispredicts = 0;
    btb_misses = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    l1i_accesses = 0;
    l1i_misses = 0;
    l1d_accesses = 0;
    l1d_misses = 0;
    l2_accesses = 0;
    l2_misses = 0;
    llc_accesses = 0;
    llc_misses = 0;
    coherence_misses = 0;
    bytes_read = 0;
    bytes_written = 0;
    s = { cycles = 0.0; retiring = 0.0; frontend = 0.0; bad_spec = 0.0; backend = 0.0 };
  }

let reset t =
  t.insts <- 0;
  t.uops <- 0;
  t.branches <- 0;
  t.mispredicts <- 0;
  t.btb_misses <- 0;
  t.itlb_misses <- 0;
  t.dtlb_misses <- 0;
  t.l1i_accesses <- 0;
  t.l1i_misses <- 0;
  t.l1d_accesses <- 0;
  t.l1d_misses <- 0;
  t.l2_accesses <- 0;
  t.l2_misses <- 0;
  t.llc_accesses <- 0;
  t.llc_misses <- 0;
  t.coherence_misses <- 0;
  t.bytes_read <- 0;
  t.bytes_written <- 0;
  t.s.cycles <- 0.0;
  t.s.retiring <- 0.0;
  t.s.frontend <- 0.0;
  t.s.bad_spec <- 0.0;
  t.s.backend <- 0.0

(* The nested slots record is mutable, so a copy must not alias it. *)
let copy t = { t with s = { t.s with cycles = t.s.cycles } }

let sub a b =
  {
    insts = a.insts - b.insts;
    uops = a.uops - b.uops;
    branches = a.branches - b.branches;
    mispredicts = a.mispredicts - b.mispredicts;
    btb_misses = a.btb_misses - b.btb_misses;
    itlb_misses = a.itlb_misses - b.itlb_misses;
    dtlb_misses = a.dtlb_misses - b.dtlb_misses;
    l1i_accesses = a.l1i_accesses - b.l1i_accesses;
    l1i_misses = a.l1i_misses - b.l1i_misses;
    l1d_accesses = a.l1d_accesses - b.l1d_accesses;
    l1d_misses = a.l1d_misses - b.l1d_misses;
    l2_accesses = a.l2_accesses - b.l2_accesses;
    l2_misses = a.l2_misses - b.l2_misses;
    llc_accesses = a.llc_accesses - b.llc_accesses;
    llc_misses = a.llc_misses - b.llc_misses;
    coherence_misses = a.coherence_misses - b.coherence_misses;
    bytes_read = a.bytes_read - b.bytes_read;
    bytes_written = a.bytes_written - b.bytes_written;
    s =
      {
        cycles = a.s.cycles -. b.s.cycles;
        retiring = a.s.retiring -. b.s.retiring;
        frontend = a.s.frontend -. b.s.frontend;
        bad_spec = a.s.bad_spec -. b.s.bad_spec;
        backend = a.s.backend -. b.s.backend;
      };
  }

let acc into d =
  into.insts <- into.insts + d.insts;
  into.uops <- into.uops + d.uops;
  into.branches <- into.branches + d.branches;
  into.mispredicts <- into.mispredicts + d.mispredicts;
  into.btb_misses <- into.btb_misses + d.btb_misses;
  into.itlb_misses <- into.itlb_misses + d.itlb_misses;
  into.dtlb_misses <- into.dtlb_misses + d.dtlb_misses;
  into.l1i_accesses <- into.l1i_accesses + d.l1i_accesses;
  into.l1i_misses <- into.l1i_misses + d.l1i_misses;
  into.l1d_accesses <- into.l1d_accesses + d.l1d_accesses;
  into.l1d_misses <- into.l1d_misses + d.l1d_misses;
  into.l2_accesses <- into.l2_accesses + d.l2_accesses;
  into.l2_misses <- into.l2_misses + d.l2_misses;
  into.llc_accesses <- into.llc_accesses + d.llc_accesses;
  into.llc_misses <- into.llc_misses + d.llc_misses;
  into.coherence_misses <- into.coherence_misses + d.coherence_misses;
  into.bytes_read <- into.bytes_read + d.bytes_read;
  into.bytes_written <- into.bytes_written + d.bytes_written;
  into.s.cycles <- into.s.cycles +. d.s.cycles;
  into.s.retiring <- into.s.retiring +. d.s.retiring;
  into.s.frontend <- into.s.frontend +. d.s.frontend;
  into.s.bad_spec <- into.s.bad_spec +. d.s.bad_spec;
  into.s.backend <- into.s.backend +. d.s.backend

let cycles t = t.s.cycles

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let ipc t = if t.s.cycles = 0.0 then 0.0 else float_of_int t.insts /. t.s.cycles
let cpi t = if t.insts = 0 then 0.0 else t.s.cycles /. float_of_int t.insts
let branch_mpki t = if t.insts = 0 then 0.0 else 1000.0 *. ratio t.mispredicts t.insts
let branch_miss_rate t = ratio t.mispredicts t.branches
let l1i_miss_rate t = ratio t.l1i_misses t.l1i_accesses
let l1d_miss_rate t = ratio t.l1d_misses t.l1d_accesses
let l2_miss_rate t = ratio t.l2_misses t.l2_accesses
let llc_miss_rate t = ratio t.llc_misses t.llc_accesses

type topdown = { retiring : float; frontend : float; bad_speculation : float; backend : float }

let topdown t =
  let total = t.s.retiring +. t.s.frontend +. t.s.bad_spec +. t.s.backend in
  if total <= 0.0 then { retiring = 0.; frontend = 0.; bad_speculation = 0.; backend = 0. }
  else
    {
      retiring = t.s.retiring /. total;
      frontend = t.s.frontend /. total;
      bad_speculation = t.s.bad_spec /. total;
      backend = t.s.backend /. total;
    }

let topdown_cpi t =
  let frac = topdown t in
  let c = cpi t in
  {
    retiring = frac.retiring *. c;
    frontend = frac.frontend *. c;
    bad_speculation = frac.bad_speculation *. c;
    backend = frac.backend *. c;
  }
