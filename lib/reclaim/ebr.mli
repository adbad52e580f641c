(** Epoch-based memory reclamation (ssmem-style; David et al., ASPLOS
    2015). A thread announces the global epoch on entering a critical
    section; nodes retired in epoch [e] are freed once the epoch reaches
    [e + 2]. OCaml's GC makes the physical free a no-op, so "freeing"
    runs a caller-supplied thunk. *)

module Make (M : Nvt_nvm.Memory.S) : sig
  type t

  val create : max_threads:int -> t

  val enter : t -> tid:int -> unit
  (** Announce the current epoch; must precede any access to nodes that
      concurrent threads might retire. *)

  val exit_cs : t -> tid:int -> unit

  val retire : t -> tid:int -> (unit -> unit) -> unit
  (** Queue a free thunk for the current epoch's limbo list. Must be
      called between [enter] and [exit_cs]. *)

  val try_advance : t -> int option
  (** Try to advance the global epoch; on success, free everything
      retired two epochs ago and return how many thunks ran. [None] when
      some announced epoch lags. *)

  val retired_count : t -> int
  val freed_count : t -> int

  val pending : t -> int
  (** Retired thunks still waiting in limbo. *)
end
