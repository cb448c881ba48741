(** The platform of [P] identical processors.

    Tracks which processor ids are free and hands out the lowest-numbered
    free ids on acquisition, which produces compact Gantt charts and lets the
    validator check that no processor runs two tasks at once. *)

type t

val create : int -> t
(** [create p] makes a platform with processors [0 .. p-1].
    @raise Invalid_argument if [p < 1]. *)

val p : t -> int
val free_count : t -> int

val acquire : t -> int -> int array
(** [acquire t n] marks [n] processors busy and returns their ids
    (ascending) in a fresh array.
    @raise Invalid_argument if [n < 1] or fewer than [n] are free. *)

val release : t -> int array -> unit
(** Marks the given processors free again; the array stays with the caller.
    @raise Invalid_argument if any of them is not currently busy. *)

val reset : t -> unit
(** Marks every processor free (forgetting any outstanding acquisitions) —
    arena reuse between runs. *)
