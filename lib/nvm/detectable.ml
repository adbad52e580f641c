(* Detectable recovery (Attiya, Ben-Baruch, Hendler, "Tracking in Order
   to Recover", and the detectability line it started): every update
   operation durably announces itself before touching the structure and
   durably records its completion before returning, so that after a
   crash the question "did my operation take effect?" has a queryable
   answer instead of requiring an idempotent client-side redo log.

   The descriptor is one persistent word per operation with a monotone
   life cycle: corrupt (never persisted) -> [D_started] -> [D_done r].
   Announce flushes + fences [D_started] *before* the wrapped operation
   performs any shared access, which is what makes the post-crash
   answer sound in both directions:

   - a corrupt descriptor means the announce fence never completed,
     hence the operation had not started — [Not_applied];
   - [D_started] means the operation was in flight — [Unknown] (the
     structure may or may not hold its effect);
   - [D_done r] means the operation completed with result [r] and that
     completion was durable before the caller saw it — [Completed].

   The complete persist is self-auditing: [returned] is plain OCaml
   state set strictly after the complete fence (a perfect observer,
   like the service oracle), and recovery fails loudly if any returned
   operation's descriptor does not read [Completed]. Suppressing
   [det:complete] therefore produces a detectable violation in the
   mutation lab. Suppressing [det:announce] does not: its loss only
   turns some honest [Unknown]s into unsound [Not_applied]s, a
   direction no generic oracle can test without knowing which crashed
   operations' effects persisted — the dedicated status-query tests pin
   it with single-client, unique-key scenarios instead, and the
   mutation allowlist documents it. *)

type status = Completed | Not_applied | Unknown

let status_name = function
  | Completed -> "completed"
  | Not_applied -> "not-applied"
  | Unknown -> "unknown"

(** What the operation was, recorded volatile for tests and recovery
    helpers that want to re-issue or check an announced operation. *)
type op = Op_insert of int * int | Op_delete of int

module Desc (M : Memory.S) (P : Persist.Make(M).S) = struct
  module Pm = Persist.Make (M)
  module G = Pm.Sited (P)

  let announce_site = Stats.intern "det:announce"
  let complete_site = Stats.intern "det:complete"

  type dword = D_started | D_done of bool

  type record = {
    cell : dword M.loc;
    op : op;
    mutable returned : bool;
        (* plain OCaml, set strictly after the complete fence: survives
           simulated crashes, so the audit can hold the durable
           descriptor against what the caller actually observed *)
  }

  type t = { mutable records : record list }

  let create () = { records = [] }

  let announce t op =
    let cell = M.alloc D_started in
    let r = { cell; op; returned = false } in
    t.records <- r :: t.records;
    G.persist announce_site cell;
    r

  let complete r res =
    M.write r.cell (D_done res);
    G.persist complete_site r.cell;
    (* not a simulated step: if the fence above completed, [returned]
       is set before any crash can intervene *)
    r.returned <- true

  let status r =
    match M.read r.cell with
    | D_done _ -> Completed
    | D_started -> Unknown
    | exception Memory.Corrupt_read _ -> Not_applied

  let result r =
    match M.read r.cell with
    | D_done b -> Some b
    | D_started -> None
    | exception Memory.Corrupt_read _ -> None

  let op r = r.op
  let returned r = r.returned
  let records t = t.records

  (* Post-crash audit: every operation whose caller saw it return must
     read [Completed]. Armed unconditionally — wrapping a volatile base
     is exactly the negative control that shows the audit bites. *)
  let audit t =
    List.iter
      (fun r ->
        if r.returned && status r <> Completed then
          failwith
            "detectable: a returned operation's descriptor is not durably \
             completed")
      t.records
end

module Policy : Policy.S = struct
  let name = "det"

  let summary =
    "detectable recovery: per-operation descriptors over the NVTraverse \
     engine"

  let durable = true

  let discipline =
    "the nvt discipline, plus one announce and one complete flush + fence \
     per update (the operation descriptor)"

  module Apply (M : Memory.S) = struct
    module Mem = M
    module Persist_m = Persist.Make (M)
    module P = Persist_m.Durable

    let recover () = ()
  end
end
