let nth = List.nth

let rec set_nth l i v =
  match l with
  | [] -> []
  | x :: rest -> if i = 0 then v :: rest else x :: set_nth rest (i - 1) v

let rec remove_nth l i =
  match l with
  | [] -> []
  | x :: rest -> if i = 0 then rest else x :: remove_nth rest (i - 1)

let rec insert x l =
  match l with
  | y :: rest when compare x y > 0 -> y :: insert x rest
  | _ -> x :: l

let insert_all xs l = List.fold_left (fun acc x -> insert x acc) l xs
let norm_net net = List.sort compare net
