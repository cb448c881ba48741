(** Growable typed buffers: append-only arrays that double in place.

    The simulation core records its event log into these instead of cons
    lists — a push is an array store (amortized, no per-element boxing),
    and the buffers are [clear]ed and reused
    across runs by the arena.  The recorded prefix is copied out once, at
    the end of a run ([to_array]). *)

module F : sig
  (** Unboxed float buffer. *)

  type t

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  val length : t -> int
  val push : t -> float -> unit
  val get : t -> int -> float

  val to_array : t -> float array
  (** A fresh copy of the pushed prefix. *)
end

module I : sig
  (** Int buffer. *)

  type t

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  val length : t -> int
  val push : t -> int -> unit
  val get : t -> int -> int

  val set : t -> int -> int -> unit
  (** Overwrite an already-pushed slot (index [< length]); the simulation
      core uses this to patch the [next] links of its intrusive
      successor-edge lists. *)

  val to_array : t -> int array
end
