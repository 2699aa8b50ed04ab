(* Reading BDS_* variables (see env.mli). *)

let get key =
  match Sys.getenv_opt key with
  | Some s when String.trim s <> "" -> Some s
  | _ -> None

let flag key =
  match get key with None -> false | Some s -> String.trim s <> "0"

let pos_int key =
  match get key with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 1 -> Some v
    | _ ->
      failwith
        (Printf.sprintf "%s: invalid value %S (expected an integer >= 1)" key s))
