(** The one reader of the [BDS_*] environment variables.

    Every variable follows one rule: unset, empty and whitespace-only
    all mean "not set", so a command inside a sweep that exports a
    variable can pin it back to its default with [VAR='']. *)

val get : string -> string option
(** The variable's value as set, or [None] when it is unset or blank. *)

val flag : string -> bool
(** An on/off switch: false when unset, blank or ["0"] (surrounding
    blanks ignored), true for anything else. *)

val pos_int : string -> int option
(** A positive-integer knob: [None] when unset or blank, [Some v] for an
    integer [v >= 1] (surrounding blanks ignored).  Anything else raises
    [Failure "KEY: invalid value \"...\" (expected an integer >= 1)"],
    naming the variable and quoting its value. *)
