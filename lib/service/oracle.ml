(* Violation order is part of the oracle's contract: the first
   violation is the kill detail the mutation battery records, and the
   request passes report in the canonical order of a [(client, seq)]
   [Hashtbl] created at twice the request count and filled in arrival
   order, so that creation size and insertion order must not change.

   Events find their record through a dense index, one array per client
   indexed by seq, so no event hashes a tuple. The canonical table is
   built only on the violation path. Only acknowledged requests can
   fail a request pass, and [ack] appends each newly acknowledged
   record to an index, so the records with [r_acks > 0] are exactly its
   prefix [0, completed): each pass (at every recovered point, and the
   final one) first scans that prefix, O(acked) rather than O(table),
   and emits nothing when it finds no violation. When it finds one, the
   pass re-runs over the canonical table, built then from the same
   records in the same order, so what it reports is unchanged. *)

type arrival = { a_client : int; a_seq : int; a_op : Service.op; a_time : int }

(* Per-request record. *)
type rec_ = {
  r_arr : arrival;
  mutable r_acks : int;
  mutable r_ack_res : Service.result option;
  mutable r_applies : int;
  mutable r_pos : (int * int) option;
      (* (global shard, slot) of the service's commit claim — where the
         durable-commit audit holds the ledger against the ack *)
}

type t = {
  index : rec_ array array;  (* [client].(seq); [absent] in the gaps *)
  table : (int * int, rec_) Hashtbl.t Lazy.t;  (* the canonical order *)
  requests : int;
  mutable violations : string list;  (* newest first, at most [cap] *)
  mutable reported : int;  (* including those beyond [cap] *)
  mutable completed : int;
  acked : rec_ array;  (* [0, completed): first acknowledgement order *)
  mutable applies : int;
  mutable dedup_acks : int;
  latencies : int array;
  last_acked : int array;  (* per client, highest acknowledged seq *)
  mutable stalled : bool;
  mutable audit : bool;
  mutable audit_acks : int;
  mutable audit_expected : int;
}

let cap = 32

let fresh a =
  { r_arr = a; r_acks = 0; r_ack_res = None; r_applies = 0; r_pos = None }

(* Fills [acked] beyond [completed] and the index's gaps, the seqs no
   arrival has; never read. *)
let absent =
  fresh { a_client = -1; a_seq = -1; a_op = Service.Get 0; a_time = 0 }

let create ~clients arrivals =
  let requests = Array.length arrivals in
  let len = Array.make clients 0 in
  Array.iter
    (fun a ->
      let reject why =
        invalid_arg
          (Printf.sprintf "Oracle.create: arrival client=%d seq=%d %s"
             a.a_client a.a_seq why)
      in
      if a.a_client < 0 || a.a_client >= clients then
        reject (Printf.sprintf "has a client outside [0, %d)" clients)
      else if a.a_seq < 0 then reject "has a negative seq";
      len.(a.a_client) <- max len.(a.a_client) (a.a_seq + 1))
    arrivals;
  let index = Array.map (fun n -> Array.make n absent) len in
  (* a repeated (client, seq) keeps its last arrival, as the table's
     [replace] does *)
  Array.iter (fun a -> index.(a.a_client).(a.a_seq) <- fresh a) arrivals;
  let table =
    lazy
      (let recs = Hashtbl.create (2 * requests) in
       Array.iter
         (fun a ->
           Hashtbl.replace recs (a.a_client, a.a_seq)
             index.(a.a_client).(a.a_seq))
         arrivals;
       recs)
  in
  { index;
    table;
    requests;
    violations = [];
    reported = 0;
    completed = 0;
    acked = Array.make requests absent;
    applies = 0;
    dedup_acks = 0;
    latencies = Array.make requests 0;
    last_acked = Array.make clients (-1);
    stalled = false;
    audit = false;
    audit_acks = 0;
    audit_expected = 0 }

let violation t fmt =
  Printf.ksprintf
    (fun s ->
      if t.reported < cap then t.violations <- s :: t.violations;
      t.reported <- t.reported + 1)
    fmt

let violations t =
  let vs = List.rev t.violations in
  if t.reported <= cap then vs
  else vs @ [ Printf.sprintf "… and %d more violations" (t.reported - cap) ]

let lookup t client seq =
  if client < 0 || client >= Array.length t.index then None
  else
    let a = t.index.(client) in
    if seq < 0 || seq >= Array.length a || a.(seq) == absent then None
    else Some a.(seq)

let find t (r : Service.request) =
  match lookup t r.client r.seq with
  | Some x -> Some x
  | None ->
    violation t "unknown request client=%d seq=%d" r.client r.seq;
    None

(* ---- events ---- *)

let apply t (req : Service.request) =
  t.applies <- t.applies + 1;
  match find t req with
  | None -> ()
  | Some x ->
    x.r_applies <- x.r_applies + 1;
    if t.audit then
      violation t "audit: client=%d seq=%d re-applied after final ack"
        req.client req.seq
    else if x.r_acks > 0 then
      violation t "client=%d seq=%d applied after acknowledgement" req.client
        req.seq

let commit t req ~shard ~slot =
  match find t req with None -> () | Some x -> x.r_pos <- Some (shard, slot)

let pp_result_opt = function
  | Some r -> Format.asprintf "%a" Service.pp_result r
  | None -> "nothing"

let ack t (req : Service.request) res ~dedup ~time =
  match find t req with
  | None -> false
  | Some x when t.audit ->
    if not dedup then
      violation t "audit: client=%d seq=%d fresh ack, expected dedup"
        req.client req.seq;
    if x.r_ack_res <> Some res then
      violation t "audit: client=%d seq=%d answered %s, recorded %s" req.client
        req.seq (pp_result_opt (Some res)) (pp_result_opt x.r_ack_res);
    t.audit_acks <- t.audit_acks + 1;
    false
  | Some x ->
    if dedup then t.dedup_acks <- t.dedup_acks + 1;
    x.r_acks <- x.r_acks + 1;
    if x.r_acks > 1 then begin
      violation t "client=%d seq=%d acknowledged twice" req.client req.seq;
      false
    end
    else begin
      x.r_ack_res <- Some res;
      t.latencies.(t.completed) <- time - x.r_arr.a_time;
      t.acked.(t.completed) <- x;
      t.completed <- t.completed + 1;
      if req.seq > t.last_acked.(req.client) then
        t.last_acked.(req.client) <- req.seq;
      true
    end

(* ---- recovered quiescent points ---- *)

(* Does [p] hold for some acknowledged request? *)
let any_acked t p =
  let rec go i = i < t.completed && (p t.acked.(i) || go (i + 1)) in
  go 0

(* Durable-commit audit: every request acknowledged before the crash
   committed at a recorded (shard, slot), and that slot must still be
   below the shard's recovered commit extent (checkpoint base +
   retained suffix). The final-state check can only vouch for truncated
   records through a later committed seq of the same client — and after
   the full run a victim's successor can commit in a later era and
   vouch for an ack the crash actually erased; the recorded position
   needs no vouching, so a lost acknowledgement is caught red-handed
   here. This is the window the commit fence closes — recovery's store
   reconciliation repairs the state divergence that used to betray its
   loss, so the oracle must hold the ack against the ledger directly. *)
let check_recovered t (durable : Service.durable array) ~status =
  let extent =
    Array.map
      (fun (d : Service.durable) -> d.dv_base + List.length d.dv_log)
      durable
  in
  let lost x =
    match x.r_pos with Some (gs, slot) -> slot >= extent.(gs) | None -> true
  in
  if any_acked t lost then
    Hashtbl.iter
      (fun (cl, sq) x ->
        if x.r_acks > 0 then
          match x.r_pos with
          | Some (gs, slot) when slot >= extent.(gs) ->
            violation t
              "recovery: client=%d seq=%d acknowledged at shard %d slot %d \
               but the recovered commit extent is %d — acknowledged work \
               lost"
              cl sq gs slot extent.(gs)
          | Some _ -> ()
          | None ->
            violation t
              "recovery: client=%d seq=%d acknowledged without an observed \
               commit"
              cl sq)
      (Lazy.force t.table);
  (* Detect mode's own obligation: every acknowledged request must
     answer [Completed] to the status query of the slice that owns its
     key — a descriptor lost (or a stale one mistaken for valid)
     surfaces here as a liveness lie rather than waiting for a re-send
     to double-apply. The query is pure, so the fallback may repeat
     it. *)
  Option.iter
    (fun status ->
      let unfinished { r_arr = a; _ } =
        match status ~client:a.a_client ~seq:a.a_seq a.a_op with
        | Nvt_nvm.Detectable.Completed -> false
        | _ -> true
      in
      if any_acked t unfinished then
        Hashtbl.iter
          (fun (cl, sq) x ->
            if x.r_acks > 0 then
              match status ~client:cl ~seq:sq x.r_arr.a_op with
              | Nvt_nvm.Detectable.Completed -> ()
              | st ->
                violation t
                  "detect: client=%d seq=%d acknowledged but status says %s"
                  cl sq
                  (Nvt_nvm.Detectable.status_name st))
          (Lazy.force t.table))
    status

(* ---- final state ---- *)

(* The reference semantics the replay checks the service against. The
   service's own mirror implements the same semantics; this copy is
   kept separate on purpose, so a bug in one cannot hide in the other. *)
let apply_model model (op : Service.op) : Service.result =
  match op with
  | Service.Put (k, v) ->
    if Hashtbl.mem model k then Service.Done false
    else begin
      Hashtbl.replace model k v;
      Service.Done true
    end
  | Service.Del k ->
    if Hashtbl.mem model k then begin
      Hashtbl.remove model k;
      Service.Done true
    end
    else Service.Done false
  | Service.Get k -> Service.Value (Hashtbl.find_opt model k)
  | Service.Multi_put kvs ->
    (* add-if-absent per key in list order, true iff every key was
       fresh *)
    Service.Done
      (List.fold_left
         (fun acc (k, v) ->
           let fresh = not (Hashtbl.mem model k) in
           if fresh then Hashtbl.replace model k v;
           acc && fresh)
         true kvs)
  | Service.Rmw (k, d) -> (
    match Hashtbl.find_opt model k with
    | Some v ->
      Hashtbl.replace model k (v + d);
      Service.Value (Some v)
    | None ->
      Hashtbl.replace model k d;
      Service.Value None)

(* Raise [client -> seq] in [tbl] to at least [sq]. *)
let note_max tbl cl sq =
  match Hashtbl.find_opt tbl cl with
  | Some s when s >= sq -> ()
  | _ -> Hashtbl.replace tbl cl sq

let check_final t ~invariant ~crash_free ~prefill ~durable ~contents =
  Option.iter (violation t "invariant: %s") invariant;
  let shards = Array.length durable in
  (* The replay model seeds each shard's keys from its checkpoint
     snapshot when one committed (the snapshot *is* the model replay of
     the truncated prefix over the prefill), else from the prefill, then
     replays the retained log suffixes. *)
  let model : (int, int) Hashtbl.t =
    Hashtbl.create (2 * List.length prefill)
  in
  List.iter
    (fun k ->
      if durable.(Service.global_shard ~shards k).Service.dv_base = 0 then
        Hashtbl.replace model k k)
    prefill;
  Array.iter
    (fun (d : Service.durable) ->
      List.iter (fun (k, v) -> Hashtbl.replace model k v) d.dv_pairs)
    durable;
  let seen : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (d : Service.durable) ->
      List.iter
        (fun (e : Service.entry) ->
          let k = (e.e_client, e.e_seq) in
          Hashtbl.replace seen k
            (1 + Option.value (Hashtbl.find_opt seen k) ~default:0);
          let r = apply_model model e.e_op in
          if crash_free && r <> e.e_res then
            violation t
              "crash-free replay: client=%d seq=%d %s -> %s, log says %s"
              e.e_client e.e_seq
              (Format.asprintf "%a" Service.pp_op e.e_op)
              (Format.asprintf "%a" Service.pp_result r)
              (Format.asprintf "%a" Service.pp_result e.e_res))
        d.dv_log)
    durable;
  Hashtbl.iter
    (fun (cl, sq) n ->
      if n > 1 then violation t "client=%d seq=%d committed %d times" cl sq n)
    seen;
  (* client -> highest committed seq visible anywhere: retained suffix
     records, or checkpoint coverage for records truncated away. A
     sequential client submits seq
     n+1 only after seq n was acknowledged — and an ack happens only
     after commit — so a later committed seq vouches for every earlier
     acked one even when both its log record and its dedup-snapshot
     entry are gone: the dedup table keeps only each client's latest
     record, so a shard's next checkpoint drops a client whose newer
     traffic moved to another shard. *)
  let max_committed : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun (cl, sq) _ -> note_max max_committed cl sq) seen;
  Array.iter
    (fun (d : Service.durable) ->
      List.iter
        (fun (cl, (c : Service.completion)) -> note_max max_committed cl c.seq)
        d.dv_covered)
    durable;
  let vouched cl sq =
    match Hashtbl.find_opt max_committed cl with
    | Some s -> sq <= s
    | None -> false
  in
  let applied_not_once x = crash_free && x.r_applies <> 1 in
  if
    any_acked t (fun x ->
        (not (vouched x.r_arr.a_client x.r_arr.a_seq)) || applied_not_once x)
  then
    Hashtbl.iter
      (fun (cl, sq) x ->
        if x.r_acks > 0 then begin
          if not (vouched cl sq) then
            violation t "client=%d seq=%d acknowledged but not committed" cl
              sq;
          if applied_not_once x then
            violation t "crash-free: client=%d seq=%d applied %d times" cl sq
              x.r_applies
        end)
      (Lazy.force t.table);
  let actual = List.sort Types.compare_pair contents in
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
    |> List.sort Types.compare_pair
  in
  if actual <> expected then
    violation t
      "state divergence: store has %d pairs, committed-log replay has %d \
       (acknowledged work lost or uncommitted work acknowledged)"
      (List.length actual) (List.length expected)

(* ---- liveness and the audit phase ---- *)

let stall t ~in_recovery ~watchdog =
  if in_recovery then begin
    t.stalled <- true;
    violation t "stalled: recovery watchdog fired after %d steps" watchdog
  end
  else if t.audit then
    violation t "audit stalled: %d/%d dedup acks" t.audit_acks t.audit_expected
  else begin
    t.stalled <- true;
    violation t "stalled: watchdog fired after %d steps with %d/%d acked"
      watchdog t.completed t.requests
  end

let stalled t = t.stalled

let start_audit t =
  t.audit <- true;
  let resend = ref [] in
  for client = Array.length t.last_acked - 1 downto 0 do
    let seq = t.last_acked.(client) in
    if seq >= 0 then begin
      t.audit_expected <- t.audit_expected + 1;
      match lookup t client seq with
      | Some x ->
        resend := { Service.client; seq; op = x.r_arr.a_op } :: !resend
      | None -> ()
    end
  done;
  !resend

let auditing t = t.audit

let settled t =
  if t.audit then t.audit_acks >= t.audit_expected
  else t.completed >= t.requests

let acked t = t.completed
let applies t = t.applies
let dedup_acks t = t.dedup_acks
let audit_acks t = t.audit_acks
let latencies t = Array.sub t.latencies 0 t.completed
