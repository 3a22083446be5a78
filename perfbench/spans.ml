(* In-memory span recorder for the traced run. Spans are recorded from
   the benchmark's side of each public call, on the replaying domain
   only; nothing inside lib/ is instrumented. With recording off,
   [span] is a plain call, so the untraced replay runs the same code. *)

type t = {
  enabled : bool;
  mutable next_id : int;
  mutable request : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable spans : Arith.span list;  (** newest first *)
}

let create ~enabled = { enabled; next_id = 0; request = 0; stack = []; spans = [] }

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start_ns = Stdx.Clock.now_ns () in
    let finish () =
      let end_ns = Stdx.Clock.now_ns () in
      t.stack <- List.tl t.stack;
      t.spans <- { Arith.id; parent; request = t.request; name; start_ns; end_ns } :: t.spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* A root span: a fresh request id shared by everything inside it. *)
let request t name f =
  t.request <- t.request + 1;
  span t name f

let spans t = List.rev t.spans

(* The layer a span belongs to: the module prefix of its name
   ("sqldb.freeze" -> "sqldb"). Roots ("stmt", "load") and the
   benchmark's own checking ("bench.*") are not layers. *)
let layer_of name =
  match String.index_opt name '.' with
  | None -> None
  | Some i -> (
      match String.sub name 0 i with "bench" -> None | l -> Some l)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_jsonl spans =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Arith.span) ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"parent\":%d,\"request\":%d,\"name\":\"%s\",\"start_ns\":%.0f,\"end_ns\":%.0f}\n"
           s.id s.parent s.request (json_escape s.name) s.start_ns s.end_ns))
    spans;
  Buffer.contents b
