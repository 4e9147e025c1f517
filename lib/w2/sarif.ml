(* SARIF 2.1.0 rendering of Diag diagnostics. *)

let version = "2.1.0"
let spf = Printf.sprintf

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (spf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Short rule descriptions, stable across runs so SARIF consumers can
   key fingerprints off them. *)
let rule_description = function
  | "W001" -> "Unused variable"
  | "W002" -> "Unused parameter"
  | "W003" -> "Dead store"
  | "W004" -> "Unreachable statement after a return"
  | "W005" -> "Assignment into an enclosing for-loop variable"
  | "W006" -> "Constant condition"
  | "W007" -> "Function never called from its section"
  | "W008" -> "Section global written by one function and accessed by a sibling"
  | "W009" -> "Channel with sends but no receives"
  | "W010" -> "Import declaration disagrees with the link"
  | "W011" -> "Cross-module write to a global another module localizes"
  | "W012" -> "Exported function never imported"
  | code when String.length code > 0 && code.[0] = 'V' ->
    "Intermediate-representation verifier finding"
  | _ -> "warpcc diagnostic"

let level_of = function
  | Diag.Note -> "note"
  | Diag.Warning -> "warning"
  | Diag.Error -> "error"

let is_dummy (l : Loc.t) = l.Loc.file = "" && l.Loc.line = 0

let to_string ?(tool_name = "warpcc") ?(tool_version = "1.0.0") diags =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let codes =
    List.sort_uniq compare (List.map (fun d -> d.Diag.d_code) diags)
  in
  let n_codes = List.length codes and n_diags = List.length diags in
  add "{\n";
  add "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  add "  \"version\": \"%s\",\n" version;
  add "  \"runs\": [\n    {\n";
  add "      \"tool\": {\n        \"driver\": {\n";
  add "          \"name\": \"%s\",\n" (escape tool_name);
  add "          \"version\": \"%s\",\n" (escape tool_version);
  add "          \"informationUri\": \"https://github.com/warpcc/warpcc\",\n";
  add "          \"rules\": [\n";
  List.iteri
    (fun i code ->
      add
        "            {\"id\": \"%s\", \"shortDescription\": {\"text\": \"%s\"}}%s\n"
        (escape code)
        (escape (rule_description code))
        (if i = n_codes - 1 then "" else ","))
    codes;
  add "          ]\n        }\n      },\n";
  add "      \"results\": [\n";
  List.iteri
    (fun i (d : Diag.t) ->
      add "        {\n";
      add "          \"ruleId\": \"%s\",\n" (escape d.Diag.d_code);
      add "          \"level\": \"%s\",\n" (level_of d.Diag.d_severity);
      add "          \"message\": {\"text\": \"%s\"}%s\n"
        (escape
           (match d.Diag.d_func with
           | Some f -> spf "[%s] %s" f d.Diag.d_message
           | None -> d.Diag.d_message))
        (if is_dummy d.Diag.d_loc then "" else ",");
      if not (is_dummy d.Diag.d_loc) then begin
        add "          \"locations\": [\n";
        add "            {\"physicalLocation\": {\n";
        add "              \"artifactLocation\": {\"uri\": \"%s\"},\n"
          (escape d.Diag.d_loc.Loc.file);
        add "              \"region\": {\"startLine\": %d, \"startColumn\": %d}\n"
          (max 1 d.Diag.d_loc.Loc.line)
          (max 1 d.Diag.d_loc.Loc.col);
        add "            }}\n          ]\n"
      end;
      add "        }%s\n" (if i = n_diags - 1 then "" else ","))
    diags;
  add "      ]\n    }\n  ]\n}\n";
  Buffer.contents buf
