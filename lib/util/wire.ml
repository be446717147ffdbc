module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  let varint b n =
    if n < 0 then invalid_arg "Wire.varint: negative";
    let rec go n =
      if n < 0x80 then Buffer.add_char b (Char.chr n)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n

  let string b s =
    varint b (String.length s);
    Buffer.add_string b s

  let bool b v = Buffer.add_char b (if v then '\001' else '\000')

  let list b f l =
    varint b (List.length l);
    List.iter f l

  let option b f = function
    | None -> bool b false
    | Some v ->
        bool b true;
        f v

  let contents = Buffer.contents
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception Corrupt of string

  let create data = { data; pos = 0 }

  let byte t =
    if t.pos >= String.length t.data then raise (Corrupt "truncated");
    let c = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    c

  let varint t =
    let rec go shift acc =
      if shift > 62 then raise (Corrupt "varint too long");
      let b = byte t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let string t =
    let len = varint t in
    (* a nine-byte varint can reach the sign bit *)
    if len < 0 || len > String.length t.data - t.pos then raise (Corrupt "truncated string");
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | _ -> raise (Corrupt "bad bool")

  let list t f =
    let n = varint t in
    if n < 0 then raise (Corrupt "negative length");
    List.init n (fun _ -> f ())

  let option t f = if bool t then Some (f ()) else None

  let at_end t = t.pos = String.length t.data
end
