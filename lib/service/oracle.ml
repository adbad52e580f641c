(* Violation order is part of the oracle's contract: the first
   violation is the kill detail the mutation battery records. Events
   report as they arrive; each request pass (at every recovered point,
   and the final one) is one loop over arrival numbers that skips
   unacknowledged requests, so within a pass violations come in
   ascending arrival number.

   Per-request state is flat: a request is its arrival number, the
   position of its arrival in the schedule, and each field is an int
   array indexed by it, so the oracle holds no block per request: one
   state word (acknowledgements, applies and the recorded result) and,
   on runs that may crash, the commit position. The latency replaces
   the arrival time in the schedule's stamp. Events find the arrival
   number through a dense index, one int array per client holding its
   arrival numbers in seq order, so no event hashes a tuple; they
   arrive as ints (client, seq, and a result as a tag and a value), so
   no event needs a request or a result built for it. A pass over
   arrival numbers counts each client's seqs as it goes; an arrival
   number alone finds its seq by a binary search of its client's row. *)

type arrivals = {
  a_op : Service.op array;
  a_stamp : int array;
}

(* A stamp keeps the client in its low [client_bits] bits and the
   arrival time above them; once acknowledged, the latency. *)
let client_bits = 16
let client_mask = (1 lsl client_bits) - 1
let max_clients = 1 lsl client_bits
let time_bits = Sys.int_size - 1 - client_bits

let stamp ~client ~time =
  let reject why =
    invalid_arg
      (Printf.sprintf "Oracle.stamp: client=%d time=%d %s" client time why)
  in
  if client < 0 || client >= max_clients then
    reject (Printf.sprintf "has a client outside [0, %d)" max_clients)
  else if time < 0 || time >= 1 lsl time_bits then
    reject (Printf.sprintf "has a time outside [0, 2^%d)" time_bits)
  else (time lsl client_bits) lor client

let client_of st = st land client_mask
let time_of st = st asr client_bits

(* A result as two ints: a tag (0 [Done false], 1 [Done true], 2
   [Value None], 3 [Value (Some v)]) and [v] (0 for the other tags). *)
let result_tag : Service.result -> int = function
  | Done false -> 0
  | Done true -> 1
  | Value None -> 2
  | Value (Some _) -> 3

let result_value : Service.result -> int = function
  | Value (Some v) -> v
  | Done _ | Value None -> 0

let result_of ~tag ~value : Service.result =
  match tag with
  | 0 -> Done false
  | 1 -> Done true
  | 2 -> Value None
  | _ -> Value (Some value)

(* A request's state word. Bit 0 says whether it was acknowledged: the
   checks ask nothing more of its acknowledgements. Bits 1-2 count its
   applies, saturating: a request is applied 3 times only when re-sends
   re-apply it twice, so from 3 on the exact count lives in [spill].
   Bits 3-4 hold the first acknowledgement's result tag and the bits
   above its value; both are recorded iff the request was
   acknowledged. *)
let acked_bit = 1
let applies_of s = (s lsr 1) land 3
let one_apply = 2
let tag_of s = (s lsr 3) land 3
let value_shift = 5
let value_bits = Sys.int_size - value_shift

(* The state bits of a first acknowledgement's result. *)
let result_bits ~client ~seq ~tag ~value =
  if tag < 3 then tag lsl 3
  else begin
    if (value lsl value_shift) asr value_shift <> value then
      invalid_arg
        (Printf.sprintf
           "Oracle.ack: client=%d seq=%d result value %d outside [-2^%d, \
            2^%d)"
           client seq value (value_bits - 1) (value_bits - 1));
    (value lsl value_shift) lor (3 lsl 3)
  end

type t = {
  arr : arrivals;
  index : int array array;  (* [client].(seq): arrival number *)
  requests : int;
  state : int array;  (* this and [pos]: per arrival number *)
  pos : int array;
      (* the (global shard, slot) of the service's commit claim, packed
         (see [shard_bits]); -1: none observed. It is where the
         durable-commit audit holds the ledger against the ack; empty
         on runs that cannot crash, which never audit. *)
  spill : (int, int) Hashtbl.t;  (* arrival number -> applies, from 3 *)
  mutable violations : string list;  (* newest first, at most [cap] *)
  mutable reported : int;  (* including those beyond [cap] *)
  mutable completed : int;
  mutable applies : int;
  mutable dedup_acks : int;
  last_acked : int array;  (* per client, highest acknowledged seq *)
  mutable stalled : bool;
  mutable audit : bool;
  mutable audit_acks : int;
  mutable audit_expected : int;
}

let cap = 32

(* A commit position keeps the global shard in its low [shard_bits]
   bits and the slot above them. *)
let shard_bits = 16
let shard_mask = (1 lsl shard_bits) - 1

let create ~clients ~crashes (arr : arrivals) =
  let requests = Array.length arr.a_op in
  if Array.length arr.a_stamp <> requests then
    invalid_arg "Oracle.create: arrival arrays of different lengths";
  if clients > max_clients then
    invalid_arg
      (Printf.sprintf "Oracle.create: %d clients, at most %d" clients
         max_clients);
  let len = Array.make clients 0 in
  for i = 0 to requests - 1 do
    let st = arr.a_stamp.(i) in
    let c = client_of st in
    if c >= clients then
      invalid_arg
        (Printf.sprintf
           "Oracle.create: arrival client=%d time=%d has a client outside \
            [0, %d)"
           c (time_of st) clients);
    len.(c) <- len.(c) + 1
  done;
  let index = Array.map (fun n -> Array.make n 0) len in
  (* [len] again counts each client's seqs so far *)
  Array.fill len 0 clients 0;
  for i = 0 to requests - 1 do
    let c = client_of arr.a_stamp.(i) in
    index.(c).(len.(c)) <- i;
    len.(c) <- len.(c) + 1
  done;
  { arr;
    index;
    requests;
    state = Array.make requests 0;
    pos = (if crashes then Array.make requests (-1) else [||]);
    spill = Hashtbl.create 16;
    violations = [];
    reported = 0;
    completed = 0;
    applies = 0;
    dedup_acks = 0;
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

(* The arrival number of [(client, seq)], or -1. *)
let lookup t client seq =
  if client < 0 || client >= Array.length t.index then -1
  else
    let a = t.index.(client) in
    if seq < 0 || seq >= Array.length a then -1 else a.(seq)

(* The seq of arrival [i]: its position in its client's row. *)
let seq_at t i =
  let row = t.index.(client_of t.arr.a_stamp.(i)) in
  let lo = ref 0 and hi = ref (Array.length row - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if row.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo

let request t i =
  { Service.client = client_of t.arr.a_stamp.(i);
    seq = seq_at t i;
    op = t.arr.a_op.(i) }

let find t client seq =
  let i = lookup t client seq in
  if i < 0 then violation t "unknown request client=%d seq=%d" client seq;
  i

let acked_at t i = t.state.(i) land acked_bit <> 0

(* [f i client seq] for each acknowledged arrival [i], in ascending
   arrival number, counting each client's seqs on the way. *)
let iter_acked t f =
  let next = Array.make (Array.length t.index) 0 in
  for i = 0 to t.requests - 1 do
    let cl = client_of t.arr.a_stamp.(i) in
    let sq = next.(cl) in
    next.(cl) <- sq + 1;
    if acked_at t i then f i cl sq
  done

let applied t i =
  let n = applies_of t.state.(i) in
  if n < 3 then n else Hashtbl.find t.spill i

let recorded_result t i : Service.result option =
  let s = t.state.(i) in
  if s land acked_bit = 0 then None
  else
    Some
      (match tag_of s with
      | 0 -> Done false
      | 1 -> Done true
      | 2 -> Value None
      | _ -> Value (Some (s asr value_shift)))

(* ---- events ---- *)

let note_apply t ~client ~seq =
  t.applies <- t.applies + 1;
  let i = find t client seq in
  if i >= 0 then begin
    let s = t.state.(i) in
    (match applies_of s with
    | 3 -> Hashtbl.replace t.spill i (Hashtbl.find t.spill i + 1)
    | n ->
      if n = 2 then Hashtbl.replace t.spill i 3;
      t.state.(i) <- s + one_apply);
    if t.audit then
      violation t "audit: client=%d seq=%d re-applied after final ack" client
        seq
    else if s land acked_bit <> 0 then
      violation t "client=%d seq=%d applied after acknowledgement" client seq
  end

let note_commit t ~client ~seq ~shard ~slot =
  if shard < 0 || shard > shard_mask || slot < 0 then
    invalid_arg
      (Printf.sprintf "Oracle.commit: client=%d seq=%d at shard %d slot %d"
         client seq shard slot);
  let i = find t client seq in
  if i >= 0 && i < Array.length t.pos then
    t.pos.(i) <- (slot lsl shard_bits) lor shard

let pp_result_opt = function
  | Some r -> Format.asprintf "%a" Service.pp_result r
  | None -> "nothing"

let note_ack t ~client ~seq ~tag ~value ~dedup ~time =
  let i = find t client seq in
  if i < 0 then false
  else if t.audit then begin
    if not dedup then
      violation t "audit: client=%d seq=%d fresh ack, expected dedup" client
        seq;
    let s = t.state.(i) in
    if
      s land acked_bit = 0
      || tag_of s <> tag
      || (tag = 3 && s asr value_shift <> value)
    then
      violation t "audit: client=%d seq=%d answered %s, recorded %s" client
        seq
        (pp_result_opt (Some (result_of ~tag ~value)))
        (pp_result_opt (recorded_result t i));
    t.audit_acks <- t.audit_acks + 1;
    false
  end
  else begin
    if dedup then t.dedup_acks <- t.dedup_acks + 1;
    let s = t.state.(i) in
    if s land acked_bit <> 0 then begin
      violation t "client=%d seq=%d acknowledged twice" client seq;
      false
    end
    else begin
      let bits = result_bits ~client ~seq ~tag ~value in
      (* the latency takes the arrival time's place in the stamp *)
      let lat = time - time_of t.arr.a_stamp.(i) in
      if (lat lsl client_bits) asr client_bits <> lat then
        invalid_arg
          (Printf.sprintf
             "Oracle.ack: client=%d seq=%d latency %d outside [-2^%d, 2^%d)"
             client seq lat time_bits time_bits);
      (* keep the applies, record the result *)
      t.state.(i) <- bits lor (s land (3 * one_apply)) lor acked_bit;
      t.arr.a_stamp.(i) <- (lat lsl client_bits) lor client;
      t.completed <- t.completed + 1;
      if seq > t.last_acked.(client) then t.last_acked.(client) <- seq;
      true
    end
  end

let apply t (r : Service.request) = note_apply t ~client:r.client ~seq:r.seq

let commit t (r : Service.request) ~shard ~slot =
  note_commit t ~client:r.client ~seq:r.seq ~shard ~slot

let ack t (r : Service.request) res ~dedup ~time =
  note_ack t ~client:r.client ~seq:r.seq ~tag:(result_tag res)
    ~value:(result_value res) ~dedup ~time

(* ---- recovered quiescent points ---- *)

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
  if Array.length t.pos <> t.requests then
    invalid_arg "Oracle.check_recovered: the oracle keeps no commit positions";
  let extent =
    Array.map
      (fun (d : Service.durable) -> d.dv_base + List.length d.dv_log)
      durable
  in
  iter_acked t (fun i cl sq ->
      let p = t.pos.(i) in
      let gs = p land shard_mask and slot = p lsr shard_bits in
      if p < 0 then
        violation t
          "recovery: client=%d seq=%d acknowledged without an observed \
           commit"
          cl sq
      else if slot >= extent.(gs) then
        violation t
          "recovery: client=%d seq=%d acknowledged at shard %d slot %d but \
           the recovered commit extent is %d — acknowledged work lost"
          cl sq gs slot extent.(gs));
  (* Detect mode's own obligation: every acknowledged request must
     answer [Completed] to the status query of the slice that owns its
     key — a descriptor lost (or a stale one mistaken for valid)
     surfaces here as a liveness lie rather than waiting for a re-send
     to double-apply. *)
  Option.iter
    (fun status ->
      iter_acked t (fun i cl sq ->
          match status ~client:cl ~seq:sq t.arr.a_op.(i) with
          | Nvt_nvm.Detectable.Completed -> ()
          | st ->
            violation t
              "detect: client=%d seq=%d acknowledged but status says %s" cl sq
              (Nvt_nvm.Detectable.status_name st)))
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
  (* per client, the highest committed seq visible anywhere: retained
     suffix records, or checkpoint coverage for records truncated away.
     A sequential client submits seq n+1 only after seq n was
     acknowledged — and an ack happens only after commit — so a later
     committed seq vouches for every earlier acked one even when both
     its log record and its dedup-snapshot entry are gone: the dedup
     table keeps only each client's latest record, so a shard's next
     checkpoint drops a client whose newer traffic moved to another
     shard. *)
  let max_committed = Array.make (Array.length t.index) (-1) in
  let note cl sq = if sq > max_committed.(cl) then max_committed.(cl) <- sq in
  Array.iter
    (fun (d : Service.durable) ->
      List.iter
        (fun (cl, (c : Service.completion)) -> note cl c.seq)
        d.dv_covered)
    durable;
  (* the arrival numbers of the durable log's pairs *)
  let committed = ref [] in
  Array.iter
    (fun (d : Service.durable) ->
      List.iter
        (fun (e : Service.entry) ->
          let i = lookup t e.e_client e.e_seq in
          if i < 0 then
            violation t "unknown request client=%d seq=%d" e.e_client e.e_seq
          else begin
            committed := i :: !committed;
            note e.e_client e.e_seq
          end;
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
  (* sorted, a pair committed n times is a run of n *)
  let committed = Array.of_list !committed in
  Array.sort Int.compare committed;
  let n = Array.length committed and j = ref 0 in
  while !j < n do
    let i = committed.(!j) and k = ref (!j + 1) in
    while !k < n && committed.(!k) = i do
      incr k
    done;
    if !k - !j > 1 then
      violation t "client=%d seq=%d committed %d times"
        (client_of t.arr.a_stamp.(i))
        (seq_at t i) (!k - !j);
    j := !k
  done;
  iter_acked t (fun i cl sq ->
      if sq > max_committed.(cl) then
        violation t "client=%d seq=%d acknowledged but not committed" cl sq;
      if crash_free && applied t i <> 1 then
        violation t "crash-free: client=%d seq=%d applied %d times" cl sq
          (applied t i));
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
      let i = lookup t client seq in
      if i >= 0 then
        resend := { Service.client; seq; op = t.arr.a_op.(i) } :: !resend
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
let latencies t =
  let st = t.arr.a_stamp and k = ref 0 in
  for i = 0 to t.requests - 1 do
    if acked_at t i then begin
      st.(!k) <- time_of st.(i);
      incr k
    end
  done;
  st
