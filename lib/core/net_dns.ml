include Dns.Server.Make (Netstack.Device.Udp)
