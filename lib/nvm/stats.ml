(* Operation counters for a persistent-memory backend.

   The paper's cost analysis is driven by how many flushes and fences each
   transformation executes per operation; every backend counts them so that
   benchmarks can report instruction mixes alongside throughput.

   Beyond the aggregates, flushes, fences and CAS are *attributed*: each
   instrumentation layer names the site issuing the instruction (e.g.
   [nvt:make_persistent], [izr:load], [flit:racy_read]) by setting the
   pending site immediately before the access, and the backend consumes
   that tag when it counts the instruction. Untagged instructions fall to
   the [app] site (the algorithm's own shared accesses), so the per-site
   table always sums exactly to the aggregate counters — the invariant
   the attribution tests check under every policy.

   A site is an interned int id: every layer interns its names once, when
   its module or functor is applied, so the per-instruction path (tag,
   take, count) is an int store, an int load and an array index — no
   string is hashed or compared while a workload runs. *)

type site = {
  mutable s_flushes : int;
  mutable s_fences : int;
  mutable s_cas : int;
}

type id = int

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable cas : int;
  mutable cas_failures : int;
  mutable flushes : int;
  mutable fences : int;
  mutable allocs : int;
  mutable by_site : site array;
}

(* ------------------------------------------------------------------ *)
(* Site registry                                                       *)
(* ------------------------------------------------------------------ *)

let app_site = "app"
let app = 0

(* Append-only and process-wide: any domain may intern a name (a worker
   domain applying a functor, a mutation battery suppressing a site).
   Writers serialize on the mutex and publish a fresh snapshot; readers
   only ever see a published snapshot, which nobody mutates again. *)
module Ids = Hashtbl.Make (String)

type registry = { names : string array; ids : id Ids.t }

let registry =
  let ids = Ids.create 64 in
  Ids.add ids app_site app;
  Atomic.make { names = [| app_site |]; ids }

let registry_lock = Mutex.create ()

let intern name =
  match Ids.find_opt (Atomic.get registry).ids name with
  | Some id -> id
  | None ->
    Mutex.protect registry_lock (fun () ->
        let r = Atomic.get registry in
        match Ids.find_opt r.ids name with
        | Some id -> id
        | None ->
          let id = Array.length r.names in
          let ids = Ids.copy r.ids in
          Ids.add ids name id;
          Atomic.set registry { names = Array.append r.names [| name |]; ids };
          id)

let name id = (Atomic.get registry).names.(id)

(* ------------------------------------------------------------------ *)
(* The pending tag                                                     *)
(* ------------------------------------------------------------------ *)

(* The pending tag is per-domain: the simulator runs on one domain, and
   the native backend's domains each tag their own accesses. A tag is
   consumed by the next counted flush/fence/CAS in the same synchronous
   call chain, so wrappers must set it immediately before each access
   they claim — and an erased or skipped access must not leave a stale
   tag behind (see [clear_site]). Hot callers hold their domain's cell
   (fetched once, when their own per-domain state is created) and skip
   the lookup. *)
type pending = { mutable site : id }

let pending_key : pending Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { site = app })

let pending () = Domain.DLS.get pending_key

let tag_at p id = p.site <- id

let take_at p =
  let s = p.site in
  p.site <- app;
  s

let tag id = tag_at (pending ()) id
let set_site name = tag (intern name)
let clear_site () = tag app
let take_site () = take_at (pending ())

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let zero () =
  { reads = 0; writes = 0; cas = 0; cas_failures = 0; flushes = 0;
    fences = 0; allocs = 0; by_site = [||] }

let fresh_site () = { s_flushes = 0; s_fences = 0; s_cas = 0 }

let copy t =
  { t with by_site = Array.map (fun s -> { s with s_cas = s.s_cas }) t.by_site }

let reset t =
  t.reads <- 0;
  t.writes <- 0;
  t.cas <- 0;
  t.cas_failures <- 0;
  t.flushes <- 0;
  t.fences <- 0;
  t.allocs <- 0;
  t.by_site <- [||]

(* Grow the site array to cover every id interned so far, so one growth
   serves every site a run will use. *)
let grow t id =
  let a = t.by_site in
  let n = max (id + 1) (Array.length (Atomic.get registry).names) in
  let b =
    Array.init n (fun i -> if i < Array.length a then a.(i) else fresh_site ())
  in
  t.by_site <- b;
  b.(id)

let slot t id =
  let a = t.by_site in
  if id < Array.length a then Array.unsafe_get a id else grow t id

let record_flush t ~site =
  t.flushes <- t.flushes + 1;
  let s = slot t site in
  s.s_flushes <- s.s_flushes + 1

let record_fence t ~site =
  t.fences <- t.fences + 1;
  let s = slot t site in
  s.s_fences <- s.s_fences + 1

let record_cas t ~site ~ok =
  t.cas <- t.cas + 1;
  if not ok then t.cas_failures <- t.cas_failures + 1;
  let s = slot t site in
  s.s_cas <- s.s_cas + 1

let site_total s = s.s_flushes + s.s_fences + s.s_cas

let sites t =
  let names = (Atomic.get registry).names in
  let named = ref [] in
  Array.iteri
    (fun id s -> if site_total s > 0 then named := (names.(id), s) :: !named)
    t.by_site;
  List.sort
    (fun (na, a) (nb, b) ->
      match compare (site_total b) (site_total a) with
      | 0 -> compare na nb
      | c -> c)
    !named

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let accumulate ~into t =
  into.reads <- into.reads + t.reads;
  into.writes <- into.writes + t.writes;
  into.cas <- into.cas + t.cas;
  into.cas_failures <- into.cas_failures + t.cas_failures;
  into.flushes <- into.flushes + t.flushes;
  into.fences <- into.fences + t.fences;
  into.allocs <- into.allocs + t.allocs;
  Array.iteri
    (fun id s ->
      if site_total s > 0 then begin
        let d = slot into id in
        d.s_flushes <- d.s_flushes + s.s_flushes;
        d.s_fences <- d.s_fences + s.s_fences;
        d.s_cas <- d.s_cas + s.s_cas
      end)
    t.by_site

let diff ~after ~before =
  let nb = Array.length before.by_site in
  let by_site =
    Array.mapi
      (fun id a ->
        let s =
          if id >= nb then { a with s_flushes = a.s_flushes }
          else
            let b = before.by_site.(id) in
            { s_flushes = a.s_flushes - b.s_flushes;
              s_fences = a.s_fences - b.s_fences;
              s_cas = a.s_cas - b.s_cas }
        in
        if site_total s > 0 then s else fresh_site ())
      after.by_site
  in
  { reads = after.reads - before.reads;
    writes = after.writes - before.writes;
    cas = after.cas - before.cas;
    cas_failures = after.cas_failures - before.cas_failures;
    flushes = after.flushes - before.flushes;
    fences = after.fences - before.fences;
    allocs = after.allocs - before.allocs;
    by_site }

let pp ppf t =
  Fmt.pf ppf
    "reads=%d writes=%d cas=%d cas_fail=%d flushes=%d fences=%d allocs=%d"
    t.reads t.writes t.cas t.cas_failures t.flushes t.fences t.allocs

let pp_sites ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (name, s) ->
         Fmt.pf ppf "%-24s flushes=%-6d fences=%-6d cas=%-6d" name s.s_flushes
           s.s_fences s.s_cas))
    (sites t)
