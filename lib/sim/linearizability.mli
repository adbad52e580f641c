(** Durable-linearizability checker for set histories.

    By Herlihy–Wing locality, a set history is linearizable iff each
    key's subhistory is linearizable as a boolean (absent/present)
    object; each key is checked by a memoized DFS over linearization
    prefixes. Completed operations must take effect within their
    interval with their observed result; operations in flight at a crash
    are optional — they may take effect before the crash (with any
    result) or not at all. *)

type violation = {
  key : int;
  message : string;
  events : History.event list;  (** the key's subhistory, for the report *)
}

val pp_violation : Format.formatter -> violation -> unit

exception Over_budget of int
(** The DFS over a key's linearization prefixes would memoise more than
    {!budget} states; raised with the offending key. The memo's chosen
    set spans the key's whole subhistory, so a history of any length
    and any overlap is checked unless its search outgrows the budget. *)

val budget : int

val check_set : ?initial_keys:int list -> History.t -> (unit, violation) result
(** [initial_keys] are present before the history begins (pre-filled and
    persisted). *)
